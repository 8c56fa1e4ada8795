//! False-positive traps: every rule's trigger tokens appear here, but only
//! in positions the linter must ignore. A correct scan reports ZERO
//! violations for this file (as class `Lib`, non-total).

// Comments are not code: HashMap::new() .unwrap() panic! v[0]

pub fn strings() -> (&'static str, &'static str, &'static str) {
    let plain = "HashMap::new() and v[0].unwrap() and panic!(\"boom\")";
    let raw = r#"HashSet::new() unreachable!"#;
    let hashes = r##"nested "quote" with .expect("x")"##;
    (plain, raw, hashes)
}

/* Block comment trap: /* nested */ todo! unimplemented! */

pub fn char_literals() -> (char, char) {
    ('[', '!') // a bracket in a char literal opens nothing
}

#[cfg(test)]
mod tests {
    // Test code may panic (D3 is a production rule).
    #[test]
    fn unwrap_is_fine_here() {
        let v = vec![1u32];
        assert_eq!(v[0], Some(1u32).unwrap());
    }
}
