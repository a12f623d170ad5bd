//! A minimal, dependency-free XML document model, parser and writer.
//!
//! The subset supported is what configuration vocabularies need: nested
//! elements, attributes (single- or double-quoted), character data, comments,
//! processing instructions/XML declarations (skipped), CDATA sections and the
//! five predefined entities. DTDs, namespaces and mixed-content preservation
//! are out of scope.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::XmlError;

/// An XML element: name, attributes, child elements and concatenated text content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XmlElement {
    /// Element name.
    pub name: String,
    /// Attributes in document order (duplicates rejected at parse time).
    pub attributes: BTreeMap<String, String>,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated character data directly inside this element (trimmed).
    pub text: String,
}

impl XmlElement {
    /// Creates an element with the given name and no content.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: BTreeMap::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Sets an attribute (builder style).
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.attributes.insert(name.into(), value.to_string());
        self
    }

    /// Appends a child element (builder style).
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// Looks up an attribute value.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.get(name).map(String::as_str)
    }

    /// Looks up a required attribute, producing a schema error when missing.
    pub fn required_attribute(&self, name: &str) -> Result<&str, XmlError> {
        self.attribute(name).ok_or_else(|| XmlError::Schema {
            message: format!(
                "element <{}> is missing required attribute `{name}`",
                self.name
            ),
        })
    }

    /// All children with the given element name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The first child with the given element name.
    pub fn child_named(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// The first child with the given name, or a schema error when missing.
    pub fn required_child(&self, name: &str) -> Result<&XmlElement, XmlError> {
        self.child_named(name).ok_or_else(|| XmlError::Schema {
            message: format!("element <{}> is missing required child <{name}>", self.name),
        })
    }
}

/// An XML document (prolog is not preserved, only the root element).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XmlDocument {
    /// The root element.
    pub root: XmlElement,
}

impl XmlDocument {
    /// Creates a document from a root element.
    pub fn new(root: XmlElement) -> Self {
        XmlDocument { root }
    }

    /// Parses a document from text.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError::Parse`] with line/column information on malformed input.
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        let mut parser = XmlParser { input, position: 0 };
        parser.skip_prolog()?;
        let root = parser.parse_element()?;
        parser.skip_misc();
        if parser.position != parser.input.len() {
            return Err(parser.error("unexpected content after the root element"));
        }
        Ok(XmlDocument { root })
    }

    /// Serialises the document with an XML declaration and 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        write_element(&self.root, 0, &mut out);
        out
    }
}

fn write_element(element: &XmlElement, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&indent);
    out.push('<');
    out.push_str(&element.name);
    for (name, value) in &element.attributes {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        out.push_str(&escape(value));
        out.push('"');
    }
    if element.children.is_empty() && element.text.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push('>');
    if !element.text.is_empty() {
        out.push_str(&escape(&element.text));
    }
    if !element.children.is_empty() {
        out.push('\n');
        for child in &element.children {
            write_element(child, depth + 1, out);
        }
        out.push_str(&indent);
    }
    out.push_str("</");
    out.push_str(&element.name);
    out.push_str(">\n");
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

fn unescape(text: &str) -> String {
    text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

struct XmlParser<'a> {
    input: &'a str,
    position: usize,
}

impl<'a> XmlParser<'a> {
    fn error(&self, message: impl Into<String>) -> XmlError {
        let consumed = &self.input[..self.position];
        let line = consumed.matches('\n').count() + 1;
        let column = self.position - consumed.rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
        XmlError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.position..]
    }

    fn skip_whitespace(&mut self) {
        let trimmed = self.rest().trim_start();
        self.position = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.position += token.len();
            true
        } else {
            false
        }
    }

    fn skip_until(&mut self, token: &str, what: &str) -> Result<(), XmlError> {
        match self.rest().find(token) {
            Some(idx) => {
                self.position += idx + token.len();
                Ok(())
            }
            None => Err(self.error(format!("unterminated {what}"))),
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.eat("<?") {
                self.skip_until("?>", "processing instruction")?;
            } else if self.rest().starts_with("<!--") {
                self.position += 4;
                self.skip_until("-->", "comment")?;
            } else if self.eat("<!DOCTYPE") {
                self.skip_until(">", "DOCTYPE declaration")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.rest().starts_with("<!--") {
                self.position += 4;
                if self.skip_until("-->", "comment").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_element(&mut self) -> Result<XmlElement, XmlError> {
        self.skip_whitespace();
        if !self.eat("<") {
            return Err(self.error("expected `<` to start an element"));
        }
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        loop {
            self.skip_whitespace();
            if self.eat("/>") {
                return Ok(element);
            }
            if self.eat(">") {
                break;
            }
            let attr_name = self.parse_name()?;
            self.skip_whitespace();
            if !self.eat("=") {
                return Err(self.error(format!("expected `=` after attribute `{attr_name}`")));
            }
            self.skip_whitespace();
            let value = self.parse_quoted()?;
            if element
                .attributes
                .insert(attr_name.clone(), value)
                .is_some()
            {
                return Err(self.error(format!("duplicate attribute `{attr_name}`")));
            }
        }

        // Content: text, children, comments, CDATA, until the closing tag.
        loop {
            if self.rest().is_empty() {
                return Err(self.error(format!("unterminated element <{}>", element.name)));
            }
            if self.rest().starts_with("</") {
                self.position += 2;
                let closing = self.parse_name()?;
                if closing != element.name {
                    return Err(self.error(format!(
                        "mismatched closing tag: expected </{}>, found </{closing}>",
                        element.name
                    )));
                }
                self.skip_whitespace();
                if !self.eat(">") {
                    return Err(self.error("expected `>` after closing tag name"));
                }
                element.text = element.text.trim().to_string();
                return Ok(element);
            }
            if self.rest().starts_with("<!--") {
                self.position += 4;
                self.skip_until("-->", "comment")?;
                continue;
            }
            if self.rest().starts_with("<![CDATA[") {
                self.position += 9;
                let rest = self.rest();
                match rest.find("]]>") {
                    Some(idx) => {
                        element.text.push_str(&rest[..idx]);
                        self.position += idx + 3;
                    }
                    None => return Err(self.error("unterminated CDATA section")),
                }
                continue;
            }
            if self.rest().starts_with('<') {
                let child = self.parse_element()?;
                element.children.push(child);
                continue;
            }
            // Character data up to the next `<`.
            let rest = self.rest();
            let end = rest.find('<').unwrap_or(rest.len());
            element.text.push_str(&unescape(&rest[..end]));
            self.position += end;
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .take_while(|(_, c)| {
                c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == '.' || *c == ':'
            })
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if end == 0 {
            return Err(self.error("expected a name"));
        }
        let name = &rest[..end];
        if name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '.')
        {
            return Err(self.error(format!("invalid name `{name}`")));
        }
        self.position += end;
        Ok(name.to_string())
    }

    fn parse_quoted(&mut self) -> Result<String, XmlError> {
        let quote = if self.eat("\"") {
            '"'
        } else if self.eat("'") {
            '\''
        } else {
            return Err(self.error("expected a quoted attribute value"));
        };
        let rest = self.rest();
        match rest.find(quote) {
            Some(end) => {
                let value = unescape(&rest[..end]);
                self.position += end + 1;
                Ok(value)
            }
            None => Err(self.error("unterminated attribute value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_attributes() {
        let doc = XmlDocument::parse(
            r#"<?xml version="1.0"?>
            <!-- a facility -->
            <model name="demo">
              <components>
                <component name="pump" mttf="500" mttr='1'/>
              </components>
              <note>hello &amp; goodbye</note>
            </model>"#,
        )
        .unwrap();
        assert_eq!(doc.root.name, "model");
        assert_eq!(doc.root.attribute("name"), Some("demo"));
        let components = doc.root.required_child("components").unwrap();
        let component = components.child_named("component").unwrap();
        assert_eq!(component.attribute("mttf"), Some("500"));
        assert_eq!(component.attribute("mttr"), Some("1"));
        let note = doc.root.child_named("note").unwrap();
        assert_eq!(note.text, "hello & goodbye");
    }

    #[test]
    fn round_trip_preserves_structure() {
        let doc = XmlDocument::new(
            XmlElement::new("model")
                .with_attribute("name", "demo <&> \"quoted\"")
                .with_child(XmlElement::new("empty"))
                .with_child(XmlElement::new("child").with_attribute("x", 3)),
        );
        let text = doc.to_string_pretty();
        let reparsed = XmlDocument::parse(&text).unwrap();
        assert_eq!(doc, reparsed);
        assert!(text.starts_with("<?xml"));
        assert!(text.contains("<empty/>"));
    }

    #[test]
    fn cdata_and_comments_inside_elements() {
        let doc = XmlDocument::parse("<a><!-- c --><![CDATA[1 < 2]]></a>").unwrap();
        assert_eq!(doc.root.text, "1 < 2");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = XmlDocument::parse("<a>\n  <b></c>\n</a>").unwrap_err();
        match err {
            XmlError::Parse { line, message, .. } => {
                assert_eq!(line, 2);
                assert!(message.contains("mismatched"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(XmlDocument::parse("").is_err());
        assert!(XmlDocument::parse("<a>").is_err());
        assert!(XmlDocument::parse("<a b=c/>").is_err());
        assert!(XmlDocument::parse("<a b=\"1\" b=\"2\"/>").is_err());
        assert!(XmlDocument::parse("<a/><b/>").is_err());
        assert!(XmlDocument::parse("<1tag/>").is_err());
        assert!(XmlDocument::parse("<a><![CDATA[x]]</a>").is_err());
        assert!(XmlDocument::parse("<?xml version=\"1.0\"").is_err());
    }

    #[test]
    fn helper_accessors_produce_schema_errors() {
        let doc = XmlDocument::parse("<a/>").unwrap();
        assert!(matches!(
            doc.root.required_attribute("x"),
            Err(XmlError::Schema { .. })
        ));
        assert!(matches!(
            doc.root.required_child("y"),
            Err(XmlError::Schema { .. })
        ));
        assert_eq!(doc.root.children_named("z").count(), 0);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = XmlDocument::parse("<a>\n   <b/>\n</a>").unwrap();
        assert_eq!(doc.root.text, "");
        assert_eq!(doc.root.children.len(), 1);
    }
}
