//! Corpus: lexer stress — every construct here must produce ZERO
//! findings and zero parse errors. A regex scanner fails several.

fn raw_strings() -> usize {
    let a = r"plain raw with \ backslash";
    let b = r#"hash-guarded with "quotes" and let _ = f();"#;
    let c = r##"doubly guarded "# with x.ok(); inside"##;
    let d = "plain \"escaped\" with a == 1.5";
    a.len() + b.len() + c.len() + d.len()
}

fn byte_and_c_strings() -> usize {
    let a = b"bytes with \" escape";
    let b = br#"raw bytes with Err(_) => {}"#;
    let c = c"c string";
    a.len() + b.len() + c.to_bytes().len()
}

/* Block comments can nest in Rust:
   /* inner block with let _ = f(); */
   still inside the outer comment: a == 1.5; x.ok();
*/
fn after_nested_comment() -> u32 {
    7
}

fn lifetimes_vs_chars<'a>(s: &'a str) -> (char, char, usize) {
    let q = '\'';
    let n = '\n';
    let lt: &'static str = "static";
    (q, n, s.len() + lt.len())
}

struct Pair(f64, u64);

fn tuple_indices(p: Pair, nested: ((u8, u8), u8)) -> bool {
    // `p.1` and `nested.0.1` must lex as tuple indices, not floats —
    // otherwise the integer compares below would count float evidence.
    let x = nested.0 .1;
    let y = nested.0.1;
    p.1 == u64::from(x) && nested.0.1 == y
}

fn radix_integers() -> u64 {
    let hex = 0xFF_u64;
    let oct = 0o77;
    let bin = 0b1010_1010;
    let plain = 1_000_000;
    hex + oct + bin + plain
}
