//! Community signal storage: ratings, comments, usage statistics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parking_lot::RwLock;
use schemr_model::SchemaId;
use schemr_obs::json::{self, JsonError, Reader};

/// A user comment on a schema ("through these comments, users can suggest
/// improvements or additions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Author handle.
    pub author: String,
    /// Comment body.
    pub text: String,
    /// Sequence number within the schema's thread.
    pub seq: u64,
    /// Optional parent comment (threading).
    pub reply_to: Option<u64>,
}

/// Usage statistics for one schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageStats {
    /// Times the schema appeared in a result list.
    pub impressions: u64,
    /// Times a user clicked through to the schema.
    pub clicks: u64,
    /// Times the schema's elements were adopted into a draft (editor
    /// integration: "information on schema re-use").
    pub adoptions: u64,
}

impl UsageStats {
    /// Click-through rate with Bayesian smoothing: `(clicks + α) /
    /// (impressions + α/p₀)` where `p₀` is the prior CTR. Unobserved
    /// schemas score the prior, heavily-shown schemas their empirical
    /// rate.
    pub fn smoothed_ctr(&self, prior_ctr: f64, strength: f64) -> f64 {
        let alpha = strength * prior_ctr;
        (self.clicks as f64 + alpha) / (self.impressions as f64 + strength)
    }
}

/// All community signals for one schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemaSignals {
    /// Star ratings, each in 1..=5.
    pub ratings: Vec<u8>,
    /// Comment thread.
    pub comments: Vec<Comment>,
    /// Usage counters.
    pub usage: UsageStats,
}

impl SchemaSignals {
    /// Bayesian-smoothed mean rating on a 0..1 scale: `m` pseudo-votes at
    /// the prior mean `prior` (in stars).
    pub fn smoothed_rating(&self, prior: f64, pseudo_votes: f64) -> f64 {
        let sum: f64 = self.ratings.iter().map(|&r| f64::from(r)).sum();
        let n = self.ratings.len() as f64;
        let stars = (sum + prior * pseudo_votes) / (n + pseudo_votes);
        ((stars - 1.0) / 4.0).clamp(0.0, 1.0)
    }
}

/// Thread-safe store of community signals, keyed by schema id.
#[derive(Debug, Default)]
pub struct CommunityStore {
    state: RwLock<BTreeMap<u64, SchemaSignals>>,
}

impl CommunityStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a star rating (clamped into 1..=5).
    pub fn rate(&self, id: SchemaId, stars: u8) {
        let stars = stars.clamp(1, 5);
        self.state
            .write()
            .entry(id.0)
            .or_default()
            .ratings
            .push(stars);
    }

    /// Append a comment; returns its sequence number. `reply_to` must name
    /// an existing comment or the comment is appended un-threaded.
    pub fn comment(
        &self,
        id: SchemaId,
        author: impl Into<String>,
        text: impl Into<String>,
        reply_to: Option<u64>,
    ) -> u64 {
        let mut state = self.state.write();
        let signals = state.entry(id.0).or_default();
        let seq = signals.comments.len() as u64;
        let reply_to = reply_to.filter(|&p| p < seq);
        signals.comments.push(Comment {
            author: author.into(),
            text: text.into(),
            seq,
            reply_to,
        });
        seq
    }

    /// Record that `id` appeared in a result list.
    pub fn record_impression(&self, id: SchemaId) {
        self.state
            .write()
            .entry(id.0)
            .or_default()
            .usage
            .impressions += 1;
    }

    /// Record a click-through.
    pub fn record_click(&self, id: SchemaId) {
        self.state.write().entry(id.0).or_default().usage.clicks += 1;
    }

    /// Record an element adoption (schema re-use).
    pub fn record_adoption(&self, id: SchemaId) {
        self.state.write().entry(id.0).or_default().usage.adoptions += 1;
    }

    /// Snapshot of one schema's signals.
    pub fn signals(&self, id: SchemaId) -> SchemaSignals {
        self.state.read().get(&id.0).cloned().unwrap_or_default()
    }

    /// Number of schemas with any signal.
    pub fn len(&self) -> usize {
        self.state.read().len()
    }

    /// True when no signals are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the whole store to JSON: an object keyed by schema id,
    /// each value `{ratings, comments, usage}` in field order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (id, signals)) in self.state.read().iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{id}\":{{\"ratings\":[");
            for (i, stars) in signals.ratings.iter().enumerate() {
                let _ = write!(out, "{}{stars}", if i > 0 { "," } else { "" });
            }
            out.push_str("],\"comments\":[");
            for (i, c) in signals.comments.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                let _ = write!(out, "{comma}{{\"author\":");
                json::string_into(&mut out, &c.author);
                out.push_str(",\"text\":");
                json::string_into(&mut out, &c.text);
                let _ = write!(out, ",\"seq\":{},\"reply_to\":", c.seq);
                match c.reply_to {
                    Some(p) => {
                        let _ = write!(out, "{p}}}");
                    }
                    None => out.push_str("null}"),
                }
            }
            let u = &signals.usage;
            let _ = write!(
                out,
                "],\"usage\":{{\"impressions\":{},\"clicks\":{},\"adoptions\":{}}}}}",
                u.impressions, u.clicks, u.adoptions
            );
        }
        out.push('}');
        out
    }

    /// Restore from [`CommunityStore::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let mut r = Reader::new(json);
        let mut state = BTreeMap::new();
        r.object(|r, id| {
            let id = id
                .parse()
                .map_err(|_| r.error(format!("schema key {id:?} is not an id")))?;
            state.insert(id, read_signals(r)?);
            Ok(())
        })?;
        r.finish()?;
        Ok(CommunityStore {
            state: RwLock::new(state),
        })
    }
}

fn read_signals(r: &mut Reader<'_>) -> Result<SchemaSignals, JsonError> {
    let mut signals = SchemaSignals::default();
    r.fields(["ratings", "comments", "usage"], |r, key| {
        match key {
            "ratings" => r.array(|r| {
                let stars = r.u64()?;
                let stars = u8::try_from(stars)
                    .map_err(|_| r.error(format!("rating {stars} out of range")))?;
                signals.ratings.push(stars);
                Ok(())
            })?,
            "comments" => r.array(|r| {
                signals.comments.push(read_comment(r)?);
                Ok(())
            })?,
            _ => {
                let u = &mut signals.usage;
                r.fields(["impressions", "clicks", "adoptions"], |r, key| {
                    match key {
                        "impressions" => u.impressions = r.u64()?,
                        "clicks" => u.clicks = r.u64()?,
                        _ => u.adoptions = r.u64()?,
                    }
                    Ok(())
                })?
            }
        }
        Ok(())
    })?;
    Ok(signals)
}

fn read_comment(r: &mut Reader<'_>) -> Result<Comment, JsonError> {
    let mut c = Comment {
        author: String::new(),
        text: String::new(),
        seq: 0,
        reply_to: None,
    };
    r.fields(["author", "text", "seq", "reply_to"], |r, key| {
        match key {
            "author" => c.author = r.string()?.into_owned(),
            "text" => c.text = r.string()?.into_owned(),
            "seq" => c.seq = r.u64()?,
            _ => c.reply_to = r.nullable(Reader::u64)?,
        }
        Ok(())
    })?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratings_clamp_and_accumulate() {
        let store = CommunityStore::new();
        store.rate(SchemaId(1), 5);
        store.rate(SchemaId(1), 0); // clamps to 1
        store.rate(SchemaId(1), 9); // clamps to 5
        let s = store.signals(SchemaId(1));
        assert_eq!(s.ratings, vec![5, 1, 5]);
    }

    #[test]
    fn smoothed_rating_shrinks_toward_prior() {
        let mut s = SchemaSignals::default();
        // No votes → exactly the prior (3 stars → 0.5).
        assert!((s.smoothed_rating(3.0, 5.0) - 0.5).abs() < 1e-12);
        // One 5-star vote moves it up, but not to 1.0.
        s.ratings.push(5);
        let r = s.smoothed_rating(3.0, 5.0);
        assert!(r > 0.5 && r < 1.0, "{r}");
        // Many 5-star votes converge to 1.0.
        s.ratings.extend(std::iter::repeat_n(5, 500));
        assert!(s.smoothed_rating(3.0, 5.0) > 0.98);
    }

    #[test]
    fn ctr_smoothing() {
        let mut u = UsageStats::default();
        // Unobserved → prior.
        assert!((u.smoothed_ctr(0.1, 10.0) - 0.1).abs() < 1e-12);
        u.impressions = 1000;
        u.clicks = 500;
        assert!((u.smoothed_ctr(0.1, 10.0) - 0.4961).abs() < 1e-3);
    }

    #[test]
    fn comments_thread() {
        let store = CommunityStore::new();
        let a = store.comment(SchemaId(2), "kuang", "add units to height", None);
        let b = store.comment(SchemaId(2), "akshay", "agreed, cm", Some(a));
        let bogus = store.comment(SchemaId(2), "x", "reply to the future", Some(99));
        let s = store.signals(SchemaId(2));
        assert_eq!(s.comments.len(), 3);
        assert_eq!(s.comments[b as usize].reply_to, Some(a));
        assert_eq!(s.comments[bogus as usize].reply_to, None);
    }

    #[test]
    fn usage_counters() {
        let store = CommunityStore::new();
        store.record_impression(SchemaId(3));
        store.record_impression(SchemaId(3));
        store.record_click(SchemaId(3));
        store.record_adoption(SchemaId(3));
        let u = store.signals(SchemaId(3)).usage;
        assert_eq!((u.impressions, u.clicks, u.adoptions), (2, 1, 1));
    }

    #[test]
    fn json_round_trip() {
        let store = CommunityStore::new();
        store.rate(SchemaId(1), 4);
        store.comment(SchemaId(1), "a", "b", None);
        store.record_click(SchemaId(2));
        let restored = CommunityStore::from_json(&store.to_json()).unwrap();
        assert_eq!(restored.signals(SchemaId(1)), store.signals(SchemaId(1)));
        assert_eq!(restored.signals(SchemaId(2)), store.signals(SchemaId(2)));
        assert!(CommunityStore::from_json("nope").is_err());
    }

    #[test]
    fn the_file_bytes_are_pinned() {
        let store = CommunityStore::new();
        store.rate(SchemaId(7), 4);
        store.rate(SchemaId(7), 5);
        store.comment(SchemaId(7), "ana", "needs \"units\"\tin cm\u{8}", None);
        store.comment(SchemaId(7), "bö", "agreed", Some(0));
        store.record_click(SchemaId(7));
        store.record_impression(SchemaId(7));
        let expected = concat!(
            r#"{"7":{"ratings":[4,5],"comments":["#,
            r#"{"author":"ana","text":"needs \"units\"\tin cm\b","seq":0,"reply_to":null},"#,
            r#"{"author":"bö","text":"agreed","seq":1,"reply_to":0}],"#,
            r#""usage":{"impressions":1,"clicks":1,"adoptions":0}}}"#
        );
        assert_eq!(store.to_json(), expected);
        assert_eq!(
            CommunityStore::from_json(expected).unwrap().to_json(),
            expected
        );
        assert_eq!(CommunityStore::new().to_json(), "{}");
    }

    #[test]
    fn unknown_schema_has_default_signals() {
        let store = CommunityStore::new();
        assert_eq!(store.signals(SchemaId(9)), SchemaSignals::default());
        assert!(store.is_empty());
    }
}
