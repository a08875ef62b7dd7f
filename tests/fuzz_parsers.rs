//! Parser robustness: no input — random bytes, structured junk, or
//! pathologically deep nesting — may panic or overflow the stack. Bad
//! input is a `Result::Err`, deep input an SSD110 diagnostic.

use proptest::prelude::*;
use semistructured::diag::json::{escape_into, Json};
use semistructured::graph::literal::{parse_graph, MAX_PARSE_DEPTH};
use semistructured::query::lang::{parse_query, parse_rewrite};
use semistructured::triples::datalog::parse_program;
use semistructured::Database;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The literal parser never panics on arbitrary byte strings.
    #[test]
    fn literal_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse_graph(&src);
    }

    /// ... nor on structured-looking junk.
    #[test]
    fn literal_parser_never_panics_on_braces(src in "[{}@=:,a-z0-9\" ]{0,256}") {
        let _ = parse_graph(&src);
    }

    /// Escaping then parsing is the identity on every string: control
    /// characters, quotes, backslashes and non-BMP characters included.
    #[test]
    fn json_escape_then_parse_round_trips(
        s in "[\u{0}-\u{1f}\"\\\\/a-z é\u{7f}\u{2028}\u{1F600}\u{10FFFF}]{0,64}"
    ) {
        let mut quoted = String::from("\"");
        escape_into(&s, &mut quoted);
        quoted.push('"');
        prop_assert_eq!(Json::parse(&quoted), Ok(Json::Str(s)));
    }

    /// The JSON importer never panics.
    #[test]
    fn json_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = Database::from_json(&src);
    }

    #[test]
    fn json_parser_never_panics_on_jsonish(src in "[\\[\\]{}\",:0-9a-z\\\\u ]{0,256}") {
        let _ = Database::from_json(&src);
    }

    /// The XML importer never panics.
    #[test]
    fn xml_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = Database::from_xml(&src);
    }

    #[test]
    fn xml_parser_never_panics_on_xmlish(src in "[<>/&;a-z0-9\" =]{0,256}") {
        let _ = Database::from_xml(&src);
    }

    /// The select-from-where query parser never panics.
    #[test]
    fn query_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse_query(&src);
    }

    #[test]
    fn query_parser_never_panics_on_queryish(
        src in "(select|from|where|db|[A-Za-z.*+|()\"=<> ]){0,128}"
    ) {
        let _ = parse_query(&src);
    }

    /// The rewrite (transducer) parser never panics.
    #[test]
    fn rewrite_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse_rewrite(&src);
    }

    /// The datalog program parser never panics.
    #[test]
    fn datalog_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let syms = semistructured::graph::new_symbols();
        let _ = parse_program(&src, &syms);
    }

    #[test]
    fn datalog_parser_never_panics_on_rulish(src in "[a-zX-Z(),._:\\- ]{0,256}") {
        let syms = semistructured::graph::new_symbols();
        let _ = parse_program(&src, &syms);
    }
}

// ---------------------------------------------------------------- depth
// limits: pathological nesting returns SSD110 instead of blowing the stack.

#[test]
fn deep_literal_nesting_is_rejected_with_ssd110() {
    let deep = format!("{}\"x\"{}", "{a: ".repeat(10_000), "}".repeat(10_000));
    let err = parse_graph(&deep).err().unwrap();
    assert!(err.message.contains("SSD110"), "{}", err.message);
}

#[test]
fn literal_nesting_at_the_limit_parses() {
    let n = MAX_PARSE_DEPTH - 1;
    let ok = format!("{}\"x\"{}", "{a: ".repeat(n), "}".repeat(n));
    assert!(parse_graph(&ok).is_ok());
}

#[test]
fn deep_json_nesting_is_rejected_with_ssd110() {
    let deep = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
    let err = Database::from_json(&deep).err().unwrap();
    assert!(err.contains("SSD110"), "{err}");
}

#[test]
fn deep_xml_nesting_is_rejected_with_ssd110() {
    let deep = format!("{}1{}", "<a>".repeat(10_000), "</a>".repeat(10_000));
    let err = Database::from_xml(&deep).err().unwrap();
    assert!(err.contains("SSD110"), "{err}");
}

#[test]
fn deep_query_nesting_is_rejected_with_ssd110() {
    let deep = format!(
        "select {}\"x\"{} from db.a X",
        "{a: ".repeat(10_000),
        "}".repeat(10_000)
    );
    let err = parse_query(&deep).err().unwrap();
    assert!(err.message.contains("SSD110"), "{}", err.message);
}

#[test]
fn deep_rewrite_nesting_is_rejected_with_ssd110() {
    let deep = format!(
        "rewrite case a => {}\"x\"{}",
        "{a: ".repeat(10_000),
        "}".repeat(10_000)
    );
    let err = parse_rewrite(&deep).err().unwrap();
    assert!(format!("{err:?}").contains("SSD110"), "{err:?}");
}

// ---------------------------------------------------------------------------
// Parser 6: the ssd-serve wire protocol (frames + commands)
// ---------------------------------------------------------------------------

use ssd_serve::protocol::{decode_frame, encode_frame, parse_command, FrameError, MAX_FRAME};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frame decoder never panics on arbitrary bytes.
    #[test]
    fn frame_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_frame(&bytes);
    }

    /// Well-formed frames round-trip exactly, and every strict prefix
    /// is "incomplete" (`Ok(None)`), never an error or a wrong parse.
    #[test]
    fn frame_round_trip_and_truncation(payload in "[ -~\n]{0,300}") {
        let enc = encode_frame(&payload);
        let (dec, used) = decode_frame(&enc).unwrap().unwrap();
        prop_assert_eq!(&dec, &payload);
        prop_assert_eq!(used, enc.len());
        for cut in [1, enc.len() / 2, enc.len() - 1] {
            if cut < enc.len() {
                prop_assert_eq!(decode_frame(&enc[..cut]), Ok(None));
            }
        }
        // Trailing garbage is not consumed.
        let mut padded = enc.clone();
        padded.extend_from_slice(b"SSD garbage");
        let (_, used2) = decode_frame(&padded).unwrap().unwrap();
        prop_assert_eq!(used2, enc.len());
    }

    /// A declared length over the cap is rejected before any payload
    /// buffering, no matter how large the number is.
    #[test]
    fn oversized_frames_are_rejected(extra in 1u64..u64::from(u32::MAX)) {
        let len = MAX_FRAME as u64 + extra;
        let head = format!("SSD {len}\n");
        prop_assert_eq!(
            decode_frame(head.as_bytes()),
            Err(FrameError::Oversized(len as usize))
        );
    }

    /// The command parser never panics; bad verbs are SSD210.
    #[test]
    fn command_parser_never_panics(s in "\\PC{0,256}") {
        let _ = parse_command(&s);
    }

    /// Structured junk around real verbs parses or fails cleanly too.
    #[test]
    fn command_parser_handles_verb_like_junk(
        s in "(HELLO|QUERY|DATALOG|CANCEL|STATS|BYE)[ a-z0-9=.%]{0,64}"
    ) {
        let _ = parse_command(&s);
    }
}

// ---------------------------------------------------------------------------
// Parser 7: the ssd-store write-ahead-log frame codec
// ---------------------------------------------------------------------------

use ssd_store::wal::{self, Decoded, KIND_COMMIT, KIND_INSERT};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Neither the frame decoder nor the full log scanner panics on
    /// arbitrary bytes — a corrupt WAL is diagnosed, never a crash.
    #[test]
    fn wal_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = wal::decode_frame(&bytes);
        let _ = wal::scan(&bytes);
    }

    /// Well-formed WAL frames round-trip exactly, and every strict
    /// prefix decodes as `Torn` — truncation is always recognized as
    /// incompleteness, never misread as a different frame.
    #[test]
    fn wal_frame_round_trip_and_truncation(
        seq in 1u64..1_000_000,
        body in "[ -~\n]{0,200}",
    ) {
        let enc = wal::encode_frame(seq, KIND_INSERT, body.as_bytes());
        match wal::decode_frame(&enc) {
            Decoded::Frame { frame, consumed } => {
                prop_assert_eq!(frame.seq, seq);
                prop_assert_eq!(frame.kind, KIND_INSERT);
                prop_assert_eq!(frame.body, body);
                prop_assert_eq!(consumed, enc.len());
            }
            other => prop_assert!(false, "round trip failed: {other:?}"),
        }
        for cut in 0..enc.len() {
            prop_assert!(
                matches!(wal::decode_frame(&enc[..cut]), Decoded::Torn),
                "prefix of {cut} byte(s) did not read as torn"
            );
        }
    }

    /// Any single bit flip in the payload or checksum region is caught
    /// (CRC32 detects all single-bit errors); the frame never decodes
    /// to a valid frame again.
    #[test]
    fn wal_bit_flips_never_decode(
        seq in 1u64..1000,
        body in "[ -~]{0,64}",
        bit in 0usize..8,
        pos_pick in any::<u64>(),
    ) {
        let mut enc = wal::encode_frame(seq, KIND_COMMIT, body.as_bytes());
        // Flip a bit at or after the payload start (byte 4): the length
        // prefix is not CRC-covered, so flips there are exercised by
        // `wal_decoder_never_panics` instead.
        let pos = 4 + (pos_pick as usize % (enc.len() - 4));
        enc[pos] ^= 1 << bit;
        prop_assert!(
            !matches!(wal::decode_frame(&enc), Decoded::Frame { .. }),
            "flipped bit {bit} of byte {pos} went undetected"
        );
    }

    /// A committed transaction survives any garbage appended after it:
    /// the scanner keeps the committed prefix and classifies the tail.
    #[test]
    fn wal_torn_tail_never_loses_committed_txn(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        body in "[ -~]{1,64}",
    ) {
        let mut log = wal::encode_frame(1, KIND_INSERT, body.as_bytes());
        log.extend_from_slice(&wal::encode_frame(2, KIND_COMMIT, b""));
        let clean_len = log.len() as u64;
        log.extend_from_slice(&garbage);
        let out = wal::scan(&log);
        prop_assert!(!out.txns.is_empty(), "committed txn lost");
        prop_assert_eq!(out.txns[0].ops.len(), 1);
        prop_assert_eq!(out.txns[0].ops[0].body.as_str(), body.as_str());
        prop_assert!(out.committed_len >= clean_len);
    }
}
