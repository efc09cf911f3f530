//! Equivalence of the static tag table with the string lists it replaced.
//!
//! The taxonomy used to be five string lists plus `match`-based
//! `group_tag_weight` / `implies_end` / `is_rawtext` / `is_metadata`
//! functions. They are kept here, verbatim, as the reference: the table
//! must give the same answer for every tag they list, for mixed-case
//! spellings of those tags, and for names they do not know.

use webre_html::taxonomy::{ElementClass, KnownTag, Tag};

const BLOCK: &[&str] = &[
    "address",
    "blockquote",
    "body",
    "caption",
    "center",
    "col",
    "colgroup",
    "dd",
    "dir",
    "div",
    "dl",
    "dt",
    "fieldset",
    "form",
    "h1",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "head",
    "hr",
    "html",
    "li",
    "menu",
    "noframes",
    "noscript",
    "ol",
    "p",
    "pre",
    "table",
    "tbody",
    "td",
    "tfoot",
    "th",
    "thead",
    "title",
    "tr",
    "ul",
];

const TEXT_LEVEL: &[&str] = &[
    "a", "abbr", "acronym", "b", "basefont", "bdo", "big", "br", "cite", "code", "dfn", "em",
    "font", "i", "kbd", "q", "s", "samp", "small", "span", "strike", "strong", "sub", "sup", "tt",
    "u", "var",
];

const VOID: &[&str] = &[
    "area", "base", "basefont", "br", "col", "embed", "frame", "hr", "img", "input", "isindex",
    "link", "meta", "param", "source", "track", "wbr",
];

const LIST_TAGS: &[&str] = &["html", "body", "table", "dl", "ul", "ol", "dir", "menu"];

const DROP: &[&str] = &[
    "script", "style", "object", "applet", "iframe", "frameset", "frame", "map",
];

fn reference_classify(name: &str) -> ElementClass {
    if BLOCK.contains(&name) {
        ElementClass::Block
    } else if TEXT_LEVEL.contains(&name) {
        ElementClass::Text
    } else {
        ElementClass::Other
    }
}

fn reference_is_metadata(name: &str) -> bool {
    matches!(name, "meta" | "link" | "base" | "basefont" | "isindex")
}

fn reference_is_rawtext(name: &str) -> bool {
    matches!(name, "script" | "style" | "textarea" | "title" | "xmp")
}

fn reference_group_tag_weight(name: &str) -> Option<u32> {
    let w = match name {
        "h1" => 100,
        "h2" => 95,
        "h3" => 90,
        "h4" => 85,
        "h5" => 80,
        "h6" => 75,
        "title" => 70,
        "div" => 60,
        "p" => 55,
        "tr" => 50,
        "li" => 45,
        "dt" => 42,
        "dd" => 40,
        "u" => 30,
        "strong" => 28,
        "b" => 26,
        "em" => 24,
        "i" => 22,
        _ => return None,
    };
    Some(w)
}

fn reference_heading_level(name: &str) -> Option<u8> {
    match name.as_bytes() {
        [b'h', d @ b'1'..=b'6'] => Some(d - b'0'),
        _ => None,
    }
}

fn reference_implies_end(open: &str, incoming: &str) -> bool {
    match open {
        "p" => reference_classify(incoming) == ElementClass::Block,
        "li" => incoming == "li",
        "dt" | "dd" => incoming == "dt" || incoming == "dd",
        "tr" => incoming == "tr",
        "td" | "th" => matches!(incoming, "td" | "th" | "tr"),
        "thead" | "tbody" | "tfoot" => matches!(incoming, "thead" | "tbody" | "tfoot"),
        "option" => incoming == "option",
        "head" => incoming == "body",
        _ => reference_heading_level(open).is_some() && reference_heading_level(incoming).is_some(),
    }
}

/// Every name the reference lists mention, plus names the table knows
/// without classifying and names nobody knows.
fn names() -> Vec<String> {
    let mut all: Vec<&str> = Vec::new();
    for list in [BLOCK, TEXT_LEVEL, VOID, LIST_TAGS, DROP] {
        all.extend_from_slice(list);
    }
    all.extend_from_slice(&[
        "meta",
        "link",
        "base",
        "basefont",
        "isindex",
        "script",
        "style",
        "textarea",
        "title",
        "xmp",
        "option",
        "head",
        "body",
        "h7",
        "hr",
        "span",
        "section",
        "nav",
        "custom-element",
        "x",
        "",
        "blockquotes",
        "tablet",
        "p2",
        "ü",
    ]);
    all.extend(KnownTag::ALL.iter().map(|k| k.name()));
    all.sort_unstable();
    all.dedup();
    all.into_iter().map(str::to_owned).collect()
}

/// `name` with every other ASCII letter uppercased.
fn mixed_case(name: &str) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 2 == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

#[test]
fn interned_tags_answer_like_the_reference_lists() {
    for name in names() {
        for spelling in [name.clone(), mixed_case(&name), name.to_ascii_uppercase()] {
            let tag = Tag::new(&spelling);
            assert_eq!(
                tag.as_str(),
                name,
                "{spelling:?} interns to its lowercase name"
            );
            assert_eq!(
                tag.class(),
                reference_classify(&name),
                "class of {spelling:?}"
            );
            assert_eq!(
                tag.is_block_level(),
                BLOCK.contains(&name.as_str()),
                "{spelling:?}"
            );
            assert_eq!(
                tag.is_text_level(),
                reference_classify(&name) == ElementClass::Text,
                "{spelling:?}"
            );
            assert_eq!(
                tag.is_void(),
                VOID.contains(&name.as_str()),
                "void {spelling:?}"
            );
            assert_eq!(
                tag.is_list_tag(),
                LIST_TAGS.contains(&name.as_str()),
                "list {spelling:?}"
            );
            assert_eq!(
                tag.is_dropped(),
                DROP.contains(&name.as_str()),
                "drop {spelling:?}"
            );
            assert_eq!(
                tag.is_metadata(),
                reference_is_metadata(&name),
                "meta {spelling:?}"
            );
            assert_eq!(
                tag.is_rawtext(),
                reference_is_rawtext(&name),
                "rawtext {spelling:?}"
            );
            assert_eq!(
                tag.group_weight(),
                reference_group_tag_weight(&name),
                "weight of {spelling:?}"
            );
        }
    }
}

#[test]
fn implied_ends_match_the_reference_for_every_pair() {
    let names = names();
    for open in &names {
        for incoming in &names {
            let expected = reference_implies_end(open, incoming);
            assert_eq!(
                Tag::new(open).implies_end(&Tag::new(incoming)),
                expected,
                "implies_end({open:?}, {incoming:?})"
            );
            assert_eq!(
                Tag::new(&mixed_case(open)).implies_end(&Tag::new(&mixed_case(incoming))),
                expected,
                "mixed-case implies_end({open:?}, {incoming:?})"
            );
        }
    }
}
