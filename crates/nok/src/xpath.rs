//! Parser for the twig-query subset of XPath used by the paper.
//!
//! Grammar (whitespace-free; the paper's Table 1 queries are all expressible):
//!
//! ```text
//! Query     := Path
//! Path      := ("/" | "//") Step { ("/" | "//" | "~") Step }
//! Step      := NameTest { Predicate }
//! NameTest  := Name | "*" | "@" Name | "#text"
//! Predicate := "[" RelPath "]"                  existence branch
//!            | "[" RelPath "=" String "]"       value-constrained branch
//!            | "[" "=" String "]"               value constraint on the step
//! RelPath   := [ "/" | "//" ] Step { ("/" | "//" | "~") Step }   (default "/")
//! String    := '"' chars '"'
//! ```
//!
//! The returning node is the final step of the main path. A leading `/`
//! anchors the first step at the document root; `//` matches anywhere.
//!
//! A query may name at most [`MAX_PATTERN_NODES`] pattern nodes. Query
//! strings can come from untrusted wire clients, and both the parser's
//! predicate recursion and the per-fragment lowering grow with pattern
//! size, so the cap is enforced before each node is added.

use crate::pattern::{Axis, PNodeId, PatternTree};

/// The most pattern nodes a query may name. Table 1's largest query has 7;
/// the cap bounds the parser's recursion depth (one `parse_predicates`
/// frame per nesting level, each level adding a node) and the lowering's
/// per-fragment tables (O(nodes²) in total).
pub const MAX_PATTERN_NODES: usize = 256;

/// A query-string parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

/// Parses a twig query string into a [`PatternTree`].
pub fn parse_query(input: &str) -> Result<PatternTree, QueryParseError> {
    let mut p = Parser {
        bytes: input.trim().as_bytes(),
        pos: 0,
    };
    let tree = p.parse_path()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(tree)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses a leading axis: `//` → Descendant, `/` → Child,
    /// `~` → FollowingSibling.
    fn parse_axis(&mut self) -> Option<Axis> {
        if self.eat(b'~') {
            return Some(Axis::FollowingSibling);
        }
        if !self.eat(b'/') {
            return None;
        }
        Some(if self.eat(b'/') {
            Axis::Descendant
        } else {
            Axis::Child
        })
    }

    /// Adds a pattern node under `parent`, refusing once the pattern holds
    /// [`MAX_PATTERN_NODES`] nodes.
    fn add_node(
        &self,
        tree: &mut PatternTree,
        parent: PNodeId,
        axis: Axis,
        name: Option<&str>,
    ) -> Result<PNodeId, QueryParseError> {
        if tree.len() >= MAX_PATTERN_NODES {
            return Err(self.err(format!(
                "query names more than {MAX_PATTERN_NODES} pattern nodes"
            )));
        }
        Ok(tree.add_child(parent, axis, name))
    }

    fn parse_name(&mut self) -> Result<Option<String>, QueryParseError> {
        if self.eat(b'*') {
            return Ok(None);
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            let first = self.pos == start;
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':')
                || (first && (b == b'@' || b == b'#'))
                || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name test"));
        }
        Ok(Some(
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
        ))
    }

    fn parse_string(&mut self) -> Result<String, QueryParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a double-quoted string"));
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn parse_path(&mut self) -> Result<PatternTree, QueryParseError> {
        let axis = self
            .parse_axis()
            .ok_or_else(|| self.err("query must start with `/` or `//`"))?;
        let name = self.parse_name()?;
        let mut tree = PatternTree::new(name.as_deref(), axis == Axis::Child);
        let mut cur = tree.root();
        self.parse_predicates(&mut tree, cur)?;
        while let Some(axis) = self.parse_axis() {
            let name = self.parse_name()?;
            cur = self.add_node(&mut tree, cur, axis, name.as_deref())?;
            self.parse_predicates(&mut tree, cur)?;
        }
        tree.set_returning(cur);
        Ok(tree)
    }

    fn parse_predicates(
        &mut self,
        tree: &mut PatternTree,
        node: PNodeId,
    ) -> Result<(), QueryParseError> {
        while self.eat(b'[') {
            if self.eat(b'=') {
                // `[="v"]`: value constraint on the step itself.
                let v = self.parse_string()?;
                tree.set_value(node, &v);
            } else {
                let axis = self.parse_axis().unwrap_or(Axis::Child);
                let name = self.parse_name()?;
                let mut cur = self.add_node(tree, node, axis, name.as_deref())?;
                self.parse_predicates(tree, cur)?;
                while let Some(axis) = self.parse_axis() {
                    let name = self.parse_name()?;
                    cur = self.add_node(tree, cur, axis, name.as_deref())?;
                    self.parse_predicates(tree, cur)?;
                }
                if self.eat(b'=') {
                    let v = self.parse_string()?;
                    tree.set_value(cur, &v);
                }
            }
            if !self.eat(b']') {
                return Err(self.err("expected `]`"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Axis;

    #[test]
    fn paper_query_q1() {
        let t = parse_query("/site/regions/africa/item[location][name][quantity]").unwrap();
        assert!(t.anchored());
        assert_eq!(t.len(), 7);
        let item = t.returning();
        assert_eq!(t.node(item).tag.as_deref(), Some("item"));
        assert_eq!(t.node(item).children.len(), 3);
    }

    #[test]
    fn paper_query_q2_mid_branch() {
        let t = parse_query("/site/categories/category[name]/description/text/bold").unwrap();
        assert_eq!(t.node(t.returning()).tag.as_deref(), Some("bold"));
        // `category` has children `name` (predicate) and `description`.
        let cat = t
            .iter()
            .find(|&n| t.node(n).tag.as_deref() == Some("category"))
            .unwrap();
        assert_eq!(t.node(cat).children.len(), 2);
    }

    #[test]
    fn paper_query_q3_nested_predicate_path() {
        let t = parse_query("/site/categories/category/name[description/text/bold]").unwrap();
        assert_eq!(t.node(t.returning()).tag.as_deref(), Some("name"));
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn paper_queries_q4_q5_q6_descendant() {
        for (q, anc, desc) in [
            ("//parlist//parlist", "parlist", "parlist"),
            ("//listitem//keyword", "listitem", "keyword"),
            ("//item//emph", "item", "emph"),
        ] {
            let t = parse_query(q).unwrap();
            assert!(!t.anchored(), "{q}");
            assert_eq!(t.len(), 2);
            assert_eq!(t.node(t.root()).tag.as_deref(), Some(anc));
            let r = t.returning();
            assert_eq!(t.node(r).tag.as_deref(), Some(desc));
            assert_eq!(t.node(r).axis, Axis::Descendant);
        }
    }

    #[test]
    fn value_predicates() {
        let t = parse_query("/site//item[name=\"gold\"]").unwrap();
        let name = t
            .iter()
            .find(|&n| t.node(n).tag.as_deref() == Some("name"))
            .unwrap();
        assert_eq!(t.node(name).value.as_deref(), Some("gold"));

        let t = parse_query("//keyword[=\"rare\"]").unwrap();
        assert_eq!(t.node(t.returning()).value.as_deref(), Some("rare"));
    }

    #[test]
    fn attribute_and_text_steps() {
        let t = parse_query("//item[@featured=\"yes\"]/name").unwrap();
        let at = t
            .iter()
            .find(|&n| t.node(n).tag.as_deref() == Some("@featured"))
            .unwrap();
        assert_eq!(t.node(at).value.as_deref(), Some("yes"));
        let t = parse_query("//bold/#text").unwrap();
        assert_eq!(t.node(t.returning()).tag.as_deref(), Some("#text"));
    }

    #[test]
    fn following_sibling_axis() {
        // An ordered pattern: a bold immediately... er, somewhere after a
        // keyword among the same element's children.
        let t = parse_query("//text/keyword~bold").unwrap();
        assert_eq!(t.len(), 3);
        let bold = t.returning();
        assert_eq!(t.node(bold).tag.as_deref(), Some("bold"));
        assert_eq!(t.node(bold).axis, Axis::FollowingSibling);
        let kw = t.node(bold).parent.unwrap();
        assert_eq!(t.node(kw).tag.as_deref(), Some("keyword"));
        // Sibling steps inside predicates.
        let t = parse_query("//item[name~quantity]").unwrap();
        assert_eq!(t.len(), 3);
        // Canonical rendering round-trips.
        let t2 = parse_query(&t.to_query_string()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn wildcards_and_deep_predicates() {
        let t = parse_query("/a/*[b[c]/d]//e").unwrap();
        assert_eq!(t.len(), 6);
        let star = t.node(t.root()).children[0];
        assert_eq!(t.node(star).tag, None);
    }

    #[test]
    fn roundtrip_via_canonical_form() {
        for q in [
            "/site/regions/africa/item[/location][/name][/quantity]",
            "//parlist//parlist",
            "/a/b[/c]//d",
        ] {
            let t = parse_query(q).unwrap();
            let t2 = parse_query(&t.to_query_string()).unwrap();
            assert_eq!(t, t2, "{q}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_query("site").is_err());
        assert!(parse_query("/a[").is_err());
        assert!(parse_query("/a[b").is_err());
        assert!(parse_query("/a]").is_err());
        assert!(parse_query("/a[name=\"x]").is_err());
        assert!(parse_query("/").is_err());
        assert!(parse_query("").is_err());
    }

    /// `/a` followed by `depth` nested `[a` predicates: `depth + 1` nodes.
    fn nested(depth: usize) -> String {
        format!("/a{}{}", "[a".repeat(depth), "]".repeat(depth))
    }

    /// `steps` descendant steps `//a`: `steps` nodes, one fragment each.
    fn chain(steps: usize) -> String {
        "//a".repeat(steps)
    }

    #[test]
    fn pattern_size_is_capped() {
        // On a thread with the default 2 MiB stack, like a server worker:
        // the parser recurses once per nesting level, so the cap must stop
        // it long before the stack runs out.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let at_cap = [nested(MAX_PATTERN_NODES - 1), chain(MAX_PATTERN_NODES)];
                for q in &at_cap {
                    assert_eq!(parse_query(q).unwrap().len(), MAX_PATTERN_NODES);
                }
                for q in [
                    nested(MAX_PATTERN_NODES),
                    chain(MAX_PATTERN_NODES + 1),
                    nested(20_000),
                    chain(50_000),
                ] {
                    let e = parse_query(&q).unwrap_err();
                    assert!(e.message.contains("pattern nodes"), "{e}");
                    assert!(e.offset <= 3 * (MAX_PATTERN_NODES + 1), "{e}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
