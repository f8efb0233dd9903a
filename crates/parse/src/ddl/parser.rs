//! Recursive-descent parser over the DDL token stream.

use schemr_model::{DataType, Schema, SchemaBuilder};

use super::lexer::{tokenize, Token, TokenKind};
use crate::error::{ParseError, Position};

/// Parse a DDL script (one or more `CREATE TABLE` statements) into a schema
/// named `schema_name`.
pub fn parse_ddl(schema_name: &str, input: &str) -> Result<Schema, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, at: 0 };
    let tables = parser.script()?;
    assemble(schema_name, tables)
}

struct ColumnDef {
    name: String,
    data_type: DataType,
    doc: Option<String>,
}

struct FkDef {
    from_cols: Vec<String>,
    to_table: String,
    to_cols: Vec<String>,
}

struct TableDef {
    name: String,
    columns: Vec<ColumnDef>,
    fks: Vec<FkDef>,
}

/// Map a SQL type name to the model's type lattice.
fn map_type(name: &str) -> DataType {
    match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "SMALLINT" | "BIGINT" | "TINYINT" | "MEDIUMINT" | "SERIAL"
        | "BIGSERIAL" | "INT2" | "INT4" | "INT8" => DataType::Integer,
        "REAL" | "FLOAT" | "DOUBLE" | "FLOAT4" | "FLOAT8" => DataType::Real,
        "DECIMAL" | "NUMERIC" | "MONEY" => DataType::Decimal,
        "CHAR" | "VARCHAR" | "NCHAR" | "NVARCHAR" | "TEXT" | "STRING" | "CLOB" | "LONGTEXT"
        | "MEDIUMTEXT" | "CHARACTER" => DataType::Text,
        "BOOL" | "BOOLEAN" | "BIT" => DataType::Boolean,
        "DATE" => DataType::Date,
        "TIME" => DataType::Time,
        "TIMESTAMP" | "DATETIME" | "TIMESTAMPTZ" => DataType::DateTime,
        "BLOB" | "BINARY" | "VARBINARY" | "BYTEA" | "LONGBLOB" => DataType::Binary,
        _ => DataType::Unknown,
    }
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.at].kind
    }

    fn position(&self) -> Position {
        self.tokens[self.at].position
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.at].kind.clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        k
    }

    /// Is the current token the keyword `kw` (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword `kw` if present; return whether it was.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected `{kw}`, found {:?}", self.peek()),
                self.position(),
            ))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected {kind:?}, found {:?}", self.peek()),
                self.position(),
            ))
        }
    }

    /// Identifier (bare or quoted). Keywords are acceptable names here; DDL
    /// in the wild uses `date`, `order`, etc. as column names.
    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::QuotedIdent(s) => Ok(s),
            other => Err(ParseError::new(
                format!("expected identifier, found {other:?}"),
                self.tokens[self.at.saturating_sub(1)].position,
            )),
        }
    }

    /// Possibly-qualified name (`db.schema.table` → `table`).
    fn qualified_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.identifier()?;
        while *self.peek() == TokenKind::Dot {
            self.bump();
            name = self.identifier()?;
        }
        Ok(name)
    }

    fn script(&mut self) -> Result<Vec<TableDef>, ParseError> {
        let mut tables = Vec::new();
        loop {
            while *self.peek() == TokenKind::Semicolon {
                self.bump();
            }
            if *self.peek() == TokenKind::Eof {
                break;
            }
            tables.push(self.create_table()?);
        }
        if tables.is_empty() {
            return Err(ParseError::at_start("no CREATE TABLE statement found"));
        }
        Ok(tables)
    }

    fn create_table(&mut self) -> Result<TableDef, ParseError> {
        self.expect_keyword("CREATE")?;
        // Optional TEMPORARY / TEMP.
        let _ = self.eat_keyword("TEMPORARY") || self.eat_keyword("TEMP");
        self.expect_keyword("TABLE")?;
        if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
        }
        let name = self.qualified_name()?;
        self.expect(TokenKind::LParen)?;
        let mut table = TableDef {
            name,
            columns: Vec::new(),
            fks: Vec::new(),
        };
        loop {
            self.table_item(&mut table)?;
            match self.bump() {
                TokenKind::Comma => continue,
                TokenKind::RParen => break,
                other => {
                    return Err(ParseError::new(
                        format!("expected `,` or `)`, found {other:?}"),
                        self.tokens[self.at.saturating_sub(1)].position,
                    ))
                }
            }
        }
        // Table options (ENGINE=…, COMMENT '…') up to `;` or EOF.
        while !matches!(self.peek(), TokenKind::Semicolon | TokenKind::Eof) {
            self.bump();
        }
        Ok(table)
    }

    fn table_item(&mut self, table: &mut TableDef) -> Result<(), ParseError> {
        if self.at_keyword("PRIMARY") || self.at_keyword("UNIQUE") || self.at_keyword("CHECK") {
            self.table_constraint(table)
        } else if self.at_keyword("FOREIGN") {
            self.foreign_key(table)
        } else if self.at_keyword("CONSTRAINT") {
            self.bump();
            let _name = self.identifier()?;
            self.table_item(table)
        } else if (self.at_keyword("KEY") || self.at_keyword("INDEX")) && self.looks_like_index() {
            // MySQL index definitions: KEY name (cols). Disambiguated from a
            // *column* named `key` by requiring a following paren group.
            self.bump();
            if let TokenKind::Ident(_) | TokenKind::QuotedIdent(_) = self.peek() {
                self.bump();
            }
            self.skip_parenthesized()?;
            Ok(())
        } else {
            self.column_def(table)
        }
    }

    /// After a `KEY`/`INDEX` token: does an index definition follow
    /// (`KEY (cols)` or `KEY name (cols)`) rather than a column definition
    /// (`key TEXT`)?
    fn looks_like_index(&self) -> bool {
        let kind_at = |k: usize| self.tokens.get(self.at + k).map(|t| &t.kind);
        match kind_at(1) {
            Some(TokenKind::LParen) => true,
            Some(TokenKind::Ident(_) | TokenKind::QuotedIdent(_)) => {
                matches!(kind_at(2), Some(TokenKind::LParen))
            }
            _ => false,
        }
    }

    /// Skip a balanced parenthesized group.
    fn skip_parenthesized(&mut self) -> Result<(), ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut depth = 1;
        loop {
            match self.bump() {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Eof => {
                    return Err(ParseError::new("unbalanced parentheses", self.position()))
                }
                _ => {}
            }
        }
    }

    fn column_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut cols = vec![self.identifier()?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            cols.push(self.identifier()?);
        }
        self.expect(TokenKind::RParen)?;
        Ok(cols)
    }

    fn table_constraint(&mut self, table: &mut TableDef) -> Result<(), ParseError> {
        if self.eat_keyword("PRIMARY") {
            self.expect_keyword("KEY")?;
            self.skip_parenthesized()?;
        } else if self.eat_keyword("UNIQUE") {
            // Optional KEY keyword and name (MySQL).
            let _ = self.eat_keyword("KEY") || self.eat_keyword("INDEX");
            if let TokenKind::Ident(_) | TokenKind::QuotedIdent(_) = self.peek() {
                self.bump();
            }
            self.skip_parenthesized()?;
        } else if self.eat_keyword("CHECK") {
            self.skip_parenthesized()?;
        }
        let _ = table; // constraints don't add elements
        Ok(())
    }

    fn foreign_key(&mut self, table: &mut TableDef) -> Result<(), ParseError> {
        self.expect_keyword("FOREIGN")?;
        self.expect_keyword("KEY")?;
        let from_cols = self.column_list()?;
        self.expect_keyword("REFERENCES")?;
        let to_table = self.qualified_name()?;
        let to_cols = if *self.peek() == TokenKind::LParen {
            self.column_list()?
        } else {
            Vec::new()
        };
        // ON DELETE / ON UPDATE actions.
        while self.eat_keyword("ON") {
            self.bump(); // DELETE | UPDATE
            self.bump(); // CASCADE | RESTRICT | SET | NO
            let _ = self.eat_keyword("NULL")
                || self.eat_keyword("DEFAULT")
                || self.eat_keyword("ACTION");
        }
        table.fks.push(FkDef {
            from_cols,
            to_table,
            to_cols,
        });
        Ok(())
    }

    fn column_def(&mut self, table: &mut TableDef) -> Result<(), ParseError> {
        let name = self.identifier()?;
        // Type name may be multi-word (DOUBLE PRECISION, CHARACTER VARYING).
        let type_name = self.identifier()?;
        if (type_name.eq_ignore_ascii_case("DOUBLE") && self.at_keyword("PRECISION"))
            || (type_name.eq_ignore_ascii_case("CHARACTER") && self.at_keyword("VARYING"))
        {
            self.bump();
        }
        // Length arguments: VARCHAR(255), DECIMAL(10, 2).
        if *self.peek() == TokenKind::LParen {
            self.skip_parenthesized()?;
        }
        let mut col = ColumnDef {
            name,
            data_type: map_type(&type_name),
            doc: None,
        };
        // Column constraints until `,` or `)`.
        loop {
            match self.peek().clone() {
                TokenKind::Comma | TokenKind::RParen | TokenKind::Eof => break,
                TokenKind::Ident(kw) if kw.eq_ignore_ascii_case("REFERENCES") => {
                    self.bump();
                    let to_table = self.qualified_name()?;
                    let to_cols = if *self.peek() == TokenKind::LParen {
                        self.column_list()?
                    } else {
                        Vec::new()
                    };
                    table.fks.push(FkDef {
                        from_cols: vec![col.name.clone()],
                        to_table,
                        to_cols,
                    });
                }
                TokenKind::Ident(kw) if kw.eq_ignore_ascii_case("COMMENT") => {
                    self.bump();
                    if let TokenKind::StringLit(s) = self.peek().clone() {
                        self.bump();
                        col.doc = Some(s);
                    }
                }
                TokenKind::Ident(kw) if kw.eq_ignore_ascii_case("DEFAULT") => {
                    self.bump();
                    // Default value: literal, number, ident, or call.
                    self.bump();
                    if *self.peek() == TokenKind::LParen {
                        self.skip_parenthesized()?;
                    }
                }
                TokenKind::Ident(kw) if kw.eq_ignore_ascii_case("CHECK") => {
                    self.bump();
                    self.skip_parenthesized()?;
                }
                _ => {
                    // NOT NULL, PRIMARY KEY, UNIQUE, AUTO_INCREMENT, …
                    self.bump();
                }
            }
        }
        table.columns.push(col);
        Ok(())
    }
}

/// Assemble parsed table definitions into a schema. Foreign keys whose
/// endpoints are not all present (fragments referencing external tables)
/// are dropped.
fn assemble(schema_name: &str, tables: Vec<TableDef>) -> Result<Schema, ParseError> {
    let mut builder = SchemaBuilder::new(schema_name);
    let table_names: std::collections::HashSet<String> =
        tables.iter().map(|t| t.name.clone()).collect();
    let mut column_names: std::collections::HashSet<(String, String)> =
        std::collections::HashSet::new();
    for t in &tables {
        for c in &t.columns {
            column_names.insert((t.name.clone(), c.name.clone()));
        }
    }
    for t in &tables {
        let cols: Vec<(String, DataType, Option<String>)> = t
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.data_type, c.doc.clone()))
            .collect();
        builder = builder.entity(t.name.clone(), move |mut e| {
            for (name, ty, doc) in cols {
                e = match doc {
                    Some(d) => e.attr_doc(name, ty, d),
                    None => e.attr(name, ty),
                };
            }
            e
        });
    }
    for t in &tables {
        for fk in &t.fks {
            if !table_names.contains(&fk.to_table) {
                continue; // fragment references an external table
            }
            let from_ok = fk
                .from_cols
                .iter()
                .all(|c| column_names.contains(&(t.name.clone(), c.clone())));
            let to_ok = fk
                .to_cols
                .iter()
                .all(|c| column_names.contains(&(fk.to_table.clone(), c.clone())));
            if !from_ok || !to_ok {
                continue;
            }
            let from_refs: Vec<&str> = fk.from_cols.iter().map(String::as_str).collect();
            let to_refs: Vec<&str> = fk.to_cols.iter().map(String::as_str).collect();
            builder =
                builder.foreign_key(t.name.clone(), &from_refs, fk.to_table.clone(), &to_refs);
        }
    }
    builder
        .build()
        .map_err(|e| ParseError::at_start(format!("internal: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{validate, ElementKind};

    #[test]
    fn parses_single_table() {
        let s = parse_ddl("q", "CREATE TABLE patient (height REAL, gender VARCHAR(8))").unwrap();
        assert_eq!(s.entities().len(), 1);
        let e = s.entities()[0];
        assert_eq!(s.element(e).name, "patient");
        let attrs = s.children(e);
        assert_eq!(s.element(attrs[0]).name, "height");
        assert_eq!(s.element(attrs[0]).data_type, DataType::Real);
        assert_eq!(s.element(attrs[1]).data_type, DataType::Text);
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn parses_the_papers_clinic_scenario() {
        let ddl = "
            CREATE TABLE patient (
                id INT PRIMARY KEY,
                height REAL,
                gender VARCHAR(8)
            );
            CREATE TABLE doctor (
                id INT PRIMARY KEY,
                gender VARCHAR(8)
            );
            CREATE TABLE \"case\" (
                id INT PRIMARY KEY,
                patient INT REFERENCES patient(id),
                doctor INT,
                FOREIGN KEY (doctor) REFERENCES doctor(id)
            );
        ";
        let s = parse_ddl("clinic", ddl).unwrap();
        assert_eq!(s.entities().len(), 3);
        assert_eq!(s.foreign_keys().len(), 2);
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn inline_references_without_target_columns() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE a (id INT); CREATE TABLE b (a_id INT REFERENCES a)",
        )
        .unwrap();
        assert_eq!(s.foreign_keys().len(), 1);
        assert!(s.foreign_keys()[0].to_attrs.is_empty());
    }

    #[test]
    fn external_references_are_dropped_for_fragments() {
        let s = parse_ddl("q", "CREATE TABLE visit (pat INT REFERENCES patient(id))").unwrap();
        assert_eq!(s.entities().len(), 1);
        assert!(s.foreign_keys().is_empty());
    }

    #[test]
    fn comments_become_documentation() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE t (ht REAL COMMENT 'height in cm' NOT NULL)",
        )
        .unwrap();
        let attr = s.attributes()[0];
        assert_eq!(s.element(attr).doc, Some("height in cm"));
    }

    #[test]
    fn table_level_constraints_do_not_create_columns() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a), UNIQUE (b), CHECK (a > 0), KEY idx (a, b))",
        )
        .unwrap();
        assert_eq!(s.attributes().len(), 2);
    }

    #[test]
    fn multiword_types_and_defaults() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE t (x DOUBLE PRECISION DEFAULT 0.5, y CHARACTER VARYING(10) DEFAULT 'a', z TIMESTAMP DEFAULT now())",
        )
        .unwrap();
        let attrs = s.attributes();
        assert_eq!(s.element(attrs[0]).data_type, DataType::Real);
        assert_eq!(s.element(attrs[1]).data_type, DataType::Text);
        assert_eq!(s.element(attrs[2]).data_type, DataType::DateTime);
    }

    #[test]
    fn if_not_exists_and_qualified_names() {
        let s = parse_ddl("q", "CREATE TABLE IF NOT EXISTS db.health.patient (id INT)").unwrap();
        assert_eq!(s.element(s.entities()[0]).name, "patient");
    }

    #[test]
    fn quoted_column_names_with_spaces() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE t ([first name] TEXT, \"last name\" TEXT)",
        )
        .unwrap();
        let attrs = s.attributes();
        assert_eq!(s.element(attrs[0]).name, "first name");
        assert_eq!(s.element(attrs[1]).name, "last name");
    }

    #[test]
    fn on_delete_cascade_is_skipped() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE a (id INT); CREATE TABLE b (a_id INT, FOREIGN KEY (a_id) REFERENCES a(id) ON DELETE CASCADE ON UPDATE SET NULL)",
        )
        .unwrap();
        assert_eq!(s.foreign_keys().len(), 1);
    }

    #[test]
    fn composite_foreign_keys() {
        let s = parse_ddl(
            "q",
            "CREATE TABLE a (x INT, y INT); CREATE TABLE b (ax INT, ay INT, FOREIGN KEY (ax, ay) REFERENCES a(x, y))",
        )
        .unwrap();
        let fk = &s.foreign_keys()[0];
        assert_eq!(fk.from_attrs.len(), 2);
        assert_eq!(fk.to_attrs.len(), 2);
    }

    #[test]
    fn empty_script_is_an_error() {
        assert!(parse_ddl("q", "").is_err());
        assert!(parse_ddl("q", "-- just a comment").is_err());
    }

    #[test]
    fn missing_paren_is_an_error_with_position() {
        let err = parse_ddl("q", "CREATE TABLE t a INT").unwrap_err();
        assert!(err.message.contains("LParen"), "{err}");
        assert_eq!(err.position.line, 1);
    }

    #[test]
    fn keywords_can_be_column_names() {
        let s = parse_ddl("q", "CREATE TABLE t (date DATE, order_ INT, key TEXT)").unwrap();
        assert_eq!(s.attributes().len(), 3);
        assert_eq!(s.element(s.attributes()[0]).name, "date");
    }

    #[test]
    fn entity_kind_is_entity_and_columns_are_attributes() {
        let s = parse_ddl("q", "CREATE TABLE t (a INT)").unwrap();
        assert_eq!(s.element(s.entities()[0]).kind, ElementKind::Entity);
        assert_eq!(s.element(s.attributes()[0]).kind, ElementKind::Attribute);
    }
}
