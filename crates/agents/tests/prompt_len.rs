//! `ConversationView::prompt_len` counts the prompt without rendering
//! it, and must count exactly what `rendered_prompt` renders: token
//! accounting (`llm.tokens`) reads the count, and the rendering is the
//! oracle. The values are generated from a word stream decoded into
//! nested JSON, so strings with every escape class, control characters,
//! DEL, multi-byte UTF-8, integral and large floats, negative integers,
//! empty containers and nesting all occur.

use gm_agents::{json_len, AgentMemory, Role, ToolCall};
use proptest::prelude::*;
use serde_json::{json, Map, Value};

/// Characters a generated string is drawn from: each JSON escape class,
/// other control characters, DEL, and one- to four-byte UTF-8.
const PALETTE: [char; 18] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}', '\u{7f}', 'a', ' ',
    '/', 'é', '€', '𝄞', '\u{80}',
];

/// Decodes a word stream into a JSON value, one word per node.
struct Decoder<'a> {
    words: &'a [u64],
    at: usize,
}

impl Decoder<'_> {
    fn word(&mut self) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w
    }

    fn string(&mut self, len: u64) -> String {
        (0..len % 9)
            .map(|_| PALETTE[(self.word() % PALETTE.len() as u64) as usize])
            .collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        let w = self.word();
        let payload = w >> 8;
        match w % 11 {
            0 => Value::Null,
            1 => Value::Bool(payload & 1 == 1),
            2 => json!(payload),
            3 => json!(-1 - (payload >> 2) as i64),
            // Integral floats render with ".0" below 1e15 and without
            // from 1e15 on.
            4 => json!((payload % 2_000_001) as f64 - 1e6),
            5 => json!((1 + payload % 1000) as f64 * 1e15),
            6 => json!(f64::from_bits(w)),
            7 => json!(self.string(payload)),
            8 if depth == 0 => json!([]),
            9 if depth == 0 => json!({}),
            8 => Value::Array((0..payload % 5).map(|_| self.value(depth - 1)).collect()),
            9 => {
                let mut map = Map::new();
                for _ in 0..payload % 5 {
                    let key = self.string(self.words.len() as u64 + payload);
                    map.insert(key, self.value(depth - 1));
                }
                Value::Object(map)
            }
            _ => json!(payload as f64 / 7.0 - 1e3),
        }
    }
}

fn decode(words: &[u64]) -> Value {
    Decoder { words, at: 0 }.value(4)
}

#[test]
fn json_len_matches_every_listed_case() {
    let cases = [
        json!("\"\\\n\r\t"),
        json!("\u{1}\u{1f}\u{7f}"),
        json!("é€𝄞"),
        json!(3.0),
        json!(-0.0),
        json!(1e15),
        json!(123456789012345678.0),
        json!(1.5e-7),
        json!(-42),
        json!(u64::MAX),
        json!(i64::MIN),
        json!([]),
        json!({}),
        json!({"a": [1, {"b\n": [null, true, false, []]}], "": {}}),
    ];
    for value in &cases {
        assert_eq!(json_len(value), value.to_string().len(), "{value}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_len_is_the_rendered_length(words in prop::collection::vec(any::<u64>(), 0..64)) {
        let value = decode(&words);
        prop_assert_eq!(json_len(&value), value.to_string().len());
    }

    #[test]
    fn prompt_len_is_the_rendered_prompts_length(
        words in prop::collection::vec(any::<u64>(), 0..96),
        split in 0usize..4,
    ) {
        let mut memory = AgentMemory::new("agent", "system \"prompt\"\n");
        memory.push(Role::User, "solve case118 ⚡", 0.0);
        memory.push(Role::Tool, "solve_acopf_case -> ok", 1.0);
        let chunks: Vec<&[u64]> = words.chunks(words.len() / (split + 1) + 1).collect();
        let pending: Vec<(ToolCall, Value)> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let call = ToolCall {
                    tool: format!("tool_{i}"),
                    args: decode(&chunk[chunk.len() / 2..]),
                };
                (call, decode(chunk))
            })
            .collect();
        let mut view = memory.view("and the n-1 \t sweep?");
        view.pending_results = &pending;
        prop_assert_eq!(view.prompt_len(), view.rendered_prompt().len());
    }
}
