//! Keeps `docs/LINTS.md` in sync with the published code catalogue.

const LINTS_MD: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/LINTS.md"));

#[test]
fn every_published_code_is_documented() {
    let missing: Vec<&str> = lint::codes::CATALOGUE
        .iter()
        .map(|(code, _)| code.0)
        .filter(|code| !LINTS_MD.contains(code))
        .collect();
    assert!(
        missing.is_empty(),
        "codes missing from docs/LINTS.md: {missing:?}"
    );
}

#[test]
fn every_retired_code_is_documented_as_retired_with_its_successor() {
    for (retired, successor) in lint::codes::RETIRED {
        let row = LINTS_MD
            .lines()
            .find(|line| line.contains(&format!("`{retired}`")))
            .unwrap_or_else(|| panic!("{retired} missing from docs/LINTS.md"));
        assert!(
            row.contains("*retired*") && row.contains(successor.0),
            "{retired} is not listed as retired in favour of {successor}: {row}"
        );
    }
}

#[test]
fn documentation_mentions_no_unpublished_codes() {
    // Any CAPL/DBC/CSP/SIM/ANA-prefixed number in the docs must be in the
    // catalogue or among the retired codes. (STO4xx storage diagnostics are
    // documented in LINTS.md too but live with `fdrlite::persist`, which
    // this crate does not depend on — they are deliberately outside this
    // scan.)
    let known: Vec<&str> = lint::codes::CATALOGUE
        .iter()
        .map(|(c, _)| c.0)
        .chain(lint::codes::RETIRED.iter().map(|(c, _)| c.0))
        .collect();
    let mut stale = Vec::new();
    for (prefix, digits) in [("CAPL", 3), ("DBC", 3), ("CSP", 3), ("SIM", 3), ("ANA", 3)] {
        let mut rest = LINTS_MD;
        while let Some(at) = rest.find(prefix) {
            let tail = &rest[at + prefix.len()..];
            let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
            if num.len() == digits {
                let code = format!("{prefix}{num}");
                if !known.contains(&code.as_str()) && !stale.contains(&code) {
                    stale.push(code);
                }
            }
            rest = &rest[at + prefix.len()..];
        }
    }
    assert!(stale.is_empty(), "undocumented codes referenced: {stale:?}");
}
