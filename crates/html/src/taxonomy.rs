//! Element taxonomy: the domain-independent HTML knowledge the paper's
//! restructuring rules consume.
//!
//! Section 2.1 of the paper splits HTML elements into *block level* elements
//! (document structure: headings, lists, text containers, tables) and *text
//! level* elements (font markup inside blocks). Section 4 then fixes the
//! exact annotation used in the experiments:
//!
//! * group tags `{h1..h6, div, p, tr, dt, dd, li, title, u, strong, b, em, i}`
//!   — used by the grouping rule, with heading tags carrying higher priority
//!   than paragraph-level tags at the same tree level;
//! * list tags `{body, table, dl, ul, ol, dir, menu}` — elements known to
//!   exhibit a list structure, used by the consolidation rule's push-up case.
//!
//! All of it lives in one static tag table. The lexer interns every element
//! name it knows into a [`KnownTag`] index, so each predicate the parser,
//! tidy pass and restructuring rules ask per node is a bit test on a table
//! row instead of a scan over string lists. Names the table does not know
//! keep an owned lowercase string and have no class bits.

use std::fmt;

/// Coarse classification of an element name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElementClass {
    /// Structures the document: headings, paragraphs, lists, tables, ...
    Block,
    /// Marks up text inside blocks: `b`, `i`, `font`, `span`, ...
    Text,
    /// Everything else (head-only metadata, form controls, unknown tags).
    Other,
}

/// Block level (HTML 4 block content plus structural table/list internals,
/// which the paper treats as structure carriers).
const BLOCK: u32 = 1 << 0;
/// Text level (font markup).
const TEXT: u32 = 1 << 1;
/// Void: never has children.
const VOID: u32 = 1 << 2;
/// One of the paper's list tags. The paper lists `{body, table, dl, ul,
/// ol, dir, menu}`; the `html` wrapper is treated as one too — it plays
/// the same pure container role as `body`, and without it the
/// consolidation rule would nest every top-level section under the first
/// concept of a full page.
const LIST: u32 = 1 << 3;
/// Subtree carries no document information; dropped by tidy.
const DROP: u32 = 1 << 4;
/// Head-only metadata; dropped by tidy together with its subtree.
const META: u32 = 1 << 5;
/// Content is raw text up to the matching end tag.
const RAWTEXT: u32 = 1 << 6;
/// `h1`..`h6`.
const HEADING: u32 = 1 << 7;

// Implied-end classes: an incoming start tag carrying one of these bits
// closes an open element whose `ends` mask contains it.
const END_LI: u32 = 1 << 8;
const END_DTDD: u32 = 1 << 9;
const END_TR: u32 = 1 << 10;
const END_CELL: u32 = 1 << 11;
const END_TSECT: u32 = 1 << 12;
const END_OPTION: u32 = 1 << 13;
const END_BODY: u32 = 1 << 14;

/// One row of the tag table.
#[derive(Debug)]
struct TagInfo {
    /// The lowercase element name.
    name: &'static str,
    /// Class bits (block, text level, void, list, ...).
    bits: u32,
    /// Grouping-rule priority; 0 for tags that are not group tags.
    weight: u8,
    /// Implied-end class: an open element of this tag is closed by an
    /// incoming start tag whose `bits` intersect this mask.
    ends: u32,
}

/// The row every unknown name shares: no class bits, no weight.
static UNKNOWN: TagInfo = TagInfo {
    name: "",
    bits: 0,
    weight: 0,
    ends: 0,
};

macro_rules! tag_table {
    ($($variant:ident $name:literal $bits:expr, $weight:literal, $ends:expr;)*) => {
        /// An element name the tag table knows; the discriminant indexes
        /// the table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum KnownTag {
            $($variant),*
        }

        static TABLE: &[TagInfo] = &[
            $(TagInfo { name: $name, bits: $bits, weight: $weight, ends: $ends }),*
        ];

        impl KnownTag {
            /// Every known tag, in table order.
            pub const ALL: &'static [KnownTag] = &[$(KnownTag::$variant),*];

            /// The known tag named exactly `name` (already lowercase).
            fn from_lower(name: &str) -> Option<KnownTag> {
                match name {
                    $($name => Some(KnownTag::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

tag_table! {
    A "a" TEXT, 0, 0;
    Abbr "abbr" TEXT, 0, 0;
    Acronym "acronym" TEXT, 0, 0;
    Address "address" BLOCK, 0, 0;
    Applet "applet" DROP, 0, 0;
    Area "area" VOID, 0, 0;
    Article "article" 0, 0, 0;
    Aside "aside" 0, 0, 0;
    B "b" TEXT, 26, 0;
    Base "base" VOID | META, 0, 0;
    Basefont "basefont" TEXT | VOID | META, 0, 0;
    Bdo "bdo" TEXT, 0, 0;
    Big "big" TEXT, 0, 0;
    Blockquote "blockquote" BLOCK, 0, 0;
    Body "body" BLOCK | LIST | END_BODY, 0, 0;
    Br "br" TEXT | VOID, 0, 0;
    Button "button" 0, 0, 0;
    Caption "caption" BLOCK, 0, 0;
    Center "center" BLOCK, 0, 0;
    Cite "cite" TEXT, 0, 0;
    Code "code" TEXT, 0, 0;
    Col "col" BLOCK | VOID, 0, 0;
    Colgroup "colgroup" BLOCK, 0, 0;
    Dd "dd" BLOCK | END_DTDD, 40, END_DTDD;
    Del "del" 0, 0, 0;
    Dfn "dfn" TEXT, 0, 0;
    Dir "dir" BLOCK | LIST, 0, 0;
    Div "div" BLOCK, 60, 0;
    Dl "dl" BLOCK | LIST, 0, 0;
    Dt "dt" BLOCK | END_DTDD, 42, END_DTDD;
    Em "em" TEXT, 24, 0;
    Embed "embed" VOID, 0, 0;
    Fieldset "fieldset" BLOCK, 0, 0;
    Font "font" TEXT, 0, 0;
    Footer "footer" 0, 0, 0;
    Form "form" BLOCK, 0, 0;
    Frame "frame" VOID | DROP, 0, 0;
    Frameset "frameset" DROP, 0, 0;
    H1 "h1" BLOCK | HEADING, 100, HEADING;
    H2 "h2" BLOCK | HEADING, 95, HEADING;
    H3 "h3" BLOCK | HEADING, 90, HEADING;
    H4 "h4" BLOCK | HEADING, 85, HEADING;
    H5 "h5" BLOCK | HEADING, 80, HEADING;
    H6 "h6" BLOCK | HEADING, 75, HEADING;
    Head "head" BLOCK, 0, END_BODY;
    Header "header" 0, 0, 0;
    Hr "hr" BLOCK | VOID, 0, 0;
    Html "html" BLOCK | LIST, 0, 0;
    I "i" TEXT, 22, 0;
    Iframe "iframe" DROP, 0, 0;
    Img "img" VOID, 0, 0;
    Input "input" VOID, 0, 0;
    Ins "ins" 0, 0, 0;
    Isindex "isindex" VOID | META, 0, 0;
    Kbd "kbd" TEXT, 0, 0;
    Label "label" 0, 0, 0;
    Li "li" BLOCK | END_LI, 45, END_LI;
    Link "link" VOID | META, 0, 0;
    Main "main" 0, 0, 0;
    Map "map" DROP, 0, 0;
    Menu "menu" BLOCK | LIST, 0, 0;
    Meta "meta" VOID | META, 0, 0;
    Nav "nav" 0, 0, 0;
    Nobr "nobr" 0, 0, 0;
    Noframes "noframes" BLOCK, 0, 0;
    Noscript "noscript" BLOCK, 0, 0;
    Object "object" DROP, 0, 0;
    Ol "ol" BLOCK | LIST, 0, 0;
    Optgroup "optgroup" 0, 0, 0;
    Option "option" END_OPTION, 0, END_OPTION;
    P "p" BLOCK, 55, BLOCK;
    Param "param" VOID, 0, 0;
    Pre "pre" BLOCK, 0, 0;
    Q "q" TEXT, 0, 0;
    S "s" TEXT, 0, 0;
    Samp "samp" TEXT, 0, 0;
    Script "script" DROP | RAWTEXT, 0, 0;
    Section "section" 0, 0, 0;
    Select "select" 0, 0, 0;
    Small "small" TEXT, 0, 0;
    Source "source" VOID, 0, 0;
    Span "span" TEXT, 0, 0;
    Strike "strike" TEXT, 0, 0;
    Strong "strong" TEXT, 28, 0;
    Style "style" DROP | RAWTEXT, 0, 0;
    Sub "sub" TEXT, 0, 0;
    Sup "sup" TEXT, 0, 0;
    Table "table" BLOCK | LIST, 0, 0;
    Tbody "tbody" BLOCK | END_TSECT, 0, END_TSECT;
    Td "td" BLOCK | END_CELL, 0, END_CELL | END_TR;
    Textarea "textarea" RAWTEXT, 0, 0;
    Tfoot "tfoot" BLOCK | END_TSECT, 0, END_TSECT;
    Th "th" BLOCK | END_CELL, 0, END_CELL | END_TR;
    Thead "thead" BLOCK | END_TSECT, 0, END_TSECT;
    Title "title" BLOCK | RAWTEXT, 70, 0;
    Tr "tr" BLOCK | END_TR, 50, END_TR;
    Track "track" VOID, 0, 0;
    Tt "tt" TEXT, 0, 0;
    U "u" TEXT, 30, 0;
    Ul "ul" BLOCK | LIST, 0, 0;
    Var "var" TEXT, 0, 0;
    Wbr "wbr" VOID, 0, 0;
    Xmp "xmp" RAWTEXT, 0, 0;
}

impl KnownTag {
    /// This tag's table row.
    fn info(self) -> &'static TagInfo {
        &TABLE[self as usize]
    }

    /// The lowercase element name.
    pub fn name(self) -> &'static str {
        self.info().name
    }
}

/// Longest name the table holds; longer names are never known.
const MAX_KNOWN_LEN: usize = 10;

/// An element name: a table entry for the names the taxonomy knows, an
/// owned ASCII-lowercased string for everything else.
///
/// The representation is private so every `Tag` is canonical: a name the
/// table knows is always interned, so equal names mean equal tags and the
/// class bits never depend on how a tag was built.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tag(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Known(KnownTag),
    Other(Box<str>),
}

impl Tag {
    /// Interns `name`, ASCII-lowercasing it. Known names are lowercased
    /// into a stack buffer and cost no allocation.
    pub fn new(name: &str) -> Tag {
        match Self::lookup(name) {
            Some(known) => Tag(Repr::Known(known)),
            None => Tag(Repr::Other(name.to_ascii_lowercase().into_boxed_str())),
        }
    }

    /// The known tag `name` spells in any ASCII case.
    fn lookup(name: &str) -> Option<KnownTag> {
        if name.len() > MAX_KNOWN_LEN {
            return None;
        }
        let mut buf = [0u8; MAX_KNOWN_LEN];
        let lower = &mut buf[..name.len()];
        lower.copy_from_slice(name.as_bytes());
        lower.make_ascii_lowercase();
        std::str::from_utf8(lower).ok().and_then(KnownTag::from_lower)
    }

    /// The table entry, if the table knows this name.
    pub fn known(&self) -> Option<KnownTag> {
        match self.0 {
            Repr::Known(k) => Some(k),
            Repr::Other(_) => None,
        }
    }

    /// The lowercase element name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Known(k) => k.name(),
            Repr::Other(name) => name,
        }
    }

    /// This tag's table row (a shared empty row for unknown names).
    fn info(&self) -> &'static TagInfo {
        self.known().map_or(&UNKNOWN, KnownTag::info)
    }

    /// Whether this is the known tag `k`.
    pub fn is(&self, k: KnownTag) -> bool {
        self.known() == Some(k)
    }

    fn has(&self, bit: u32) -> bool {
        self.info().bits & bit != 0
    }

    /// Coarse classification.
    pub fn class(&self) -> ElementClass {
        if self.has(BLOCK) {
            ElementClass::Block
        } else if self.has(TEXT) {
            ElementClass::Text
        } else {
            ElementClass::Other
        }
    }

    /// Whether this is a block level element.
    pub fn is_block_level(&self) -> bool {
        self.has(BLOCK)
    }

    /// Whether this is a text level element (and not also block level).
    pub fn is_text_level(&self) -> bool {
        self.class() == ElementClass::Text
    }

    /// Whether this is a void element (no children ever).
    pub fn is_void(&self) -> bool {
        self.has(VOID)
    }

    /// Whether this is one of the paper's list tags.
    pub fn is_list_tag(&self) -> bool {
        self.has(LIST)
    }

    /// Whether this element's subtree is discarded by tidy.
    pub fn is_dropped(&self) -> bool {
        self.has(DROP)
    }

    /// Whether this is head-only metadata, also discarded by tidy.
    pub fn is_metadata(&self) -> bool {
        self.has(META)
    }

    /// Whether the content of this element is raw text up to its end tag.
    pub fn is_rawtext(&self) -> bool {
        self.has(RAWTEXT)
    }

    /// The grouping-rule priority, or `None` if this is not one of the
    /// paper's group tags.
    ///
    /// Higher weights group first: grouping right siblings of an `h1` run
    /// takes priority over grouping right siblings of `p` nodes at the same
    /// level (Section 2.3.2). Since each group sinks down and the rule
    /// operates top-down, lower-priority group tags are then handled at the
    /// next lower level.
    pub fn group_weight(&self) -> Option<u32> {
        match self.info().weight {
            0 => None,
            w => Some(u32::from(w)),
        }
    }

    /// Whether an `incoming` start tag implicitly closes an open element
    /// with this tag (tag-soup recovery, HTML 4 optional end tags).
    ///
    /// Legacy pages frequently write `<h2>A<h2>B`, so an open heading is
    /// closed by any incoming heading (the paper's "nesting of heading
    /// elements" example).
    pub fn implies_end(&self, incoming: &Tag) -> bool {
        self.info().ends & incoming.info().bits != 0
    }
}

impl From<KnownTag> for Tag {
    fn from(k: KnownTag) -> Tag {
        Tag(Repr::Known(k))
    }
}

impl From<&str> for Tag {
    fn from(name: &str) -> Tag {
        Tag::new(name)
    }
}

impl PartialEq<str> for Tag {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Tag {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(name: &str) -> Tag {
        Tag::new(name)
    }

    #[test]
    fn classification_matches_paper_examples() {
        assert!(tag("p").is_block_level());
        assert!(tag("h1").is_block_level());
        assert!(tag("table").is_block_level());
        assert!(tag("dl").is_block_level());
        assert!(tag("b").is_text_level());
        assert!(tag("font").is_text_level());
        assert_eq!(tag("meta").class(), ElementClass::Other);
    }

    #[test]
    fn paper_group_tag_set() {
        for t in [
            "h1", "h2", "h3", "h4", "h5", "h6", "div", "p", "tr", "dt", "dd", "li", "title", "u",
            "strong", "b", "em", "i",
        ] {
            assert!(tag(t).group_weight().is_some(), "{t} should be a group tag");
        }
        assert_eq!(tag("table").group_weight(), None);
        assert_eq!(tag("span").group_weight(), None);
    }

    #[test]
    fn paper_list_tag_set() {
        for t in ["body", "table", "dl", "ul", "ol", "dir", "menu"] {
            assert!(tag(t).is_list_tag(), "{t} should be a list tag");
        }
        // Our one extension to the paper's set (see LIST's docs).
        assert!(tag("html").is_list_tag());
        assert!(!tag("p").is_list_tag());
    }

    #[test]
    fn headings_outrank_paragraphs() {
        let weight = |name| tag(name).group_weight().unwrap();
        assert!(weight("h1") > weight("p"));
        assert!(weight("p") > weight("b"));
        assert!(weight("h1") > weight("h2"));
    }

    #[test]
    fn void_elements() {
        assert!(tag("br").is_void());
        assert!(tag("img").is_void());
        assert!(!tag("div").is_void());
    }

    #[test]
    fn implied_ends() {
        let implies = |open, incoming| tag(open).implies_end(&tag(incoming));
        assert!(implies("p", "p"));
        assert!(implies("p", "div"));
        assert!(!implies("p", "b"));
        assert!(implies("li", "li"));
        assert!(!implies("li", "p"));
        assert!(implies("td", "td"));
        assert!(implies("td", "tr"));
        assert!(implies("dt", "dd"));
        assert!(implies("h2", "h2"));
        assert!(implies("h2", "h3"));
        assert!(!implies("div", "div"));
    }

    #[test]
    fn table_rows_are_consistent() {
        assert_eq!(TABLE.len(), KnownTag::ALL.len());
        for &k in KnownTag::ALL {
            assert_eq!(tag(k.name()).known(), Some(k));
            assert!(k.name().len() <= MAX_KNOWN_LEN, "{}", k.name());
            assert_eq!(k.name(), k.name().to_ascii_lowercase());
        }
    }

    #[test]
    fn interning_lowercases_known_and_unknown_names() {
        assert_eq!(tag("DiV"), Tag::from(KnownTag::Div));
        assert_eq!(tag("BLOCKQUOTE").known(), Some(KnownTag::Blockquote));
        assert_eq!(tag("Custom-El").as_str(), "custom-el");
        assert_eq!(tag("Custom-El").known(), None);
        assert_eq!(tag("Blockquotes").as_str(), "blockquotes");
        assert_eq!(tag("b\0").known(), None);
        assert_eq!(tag("").as_str(), "");
        assert_eq!(tag("ÄB").as_str(), "Äb");
        let unknown = tag("custom");
        assert_eq!(unknown.class(), ElementClass::Other);
        assert_eq!(unknown.group_weight(), None);
        assert!(!unknown.implies_end(&tag("custom")));
    }
}
