//! Workspace-level guarantees of the binary (`DPGB`) trace format:
//!
//! * **Round trip** — every committed fixture under `fixtures/traces/`
//!   survives JSON → binary → JSON bit-exactly (times compared as raw
//!   `f64` bit patterns).
//! * **Solve equivalence** — solving the packed copy produces
//!   byte-identical decision-ledger JSONL and `total_cost` bits to
//!   solving the JSON original, for every `MCS_THREADS` ∈ {1, 2, 4}.
//! * **Corruption** — truncated or tampered binary files are rejected
//!   with a diagnostic, never admitted or panicked on.
//! * **Decoder sweep** — cut, byte-flipped and deeply nested copies of
//!   every trace fixture (JSON and DPGB) and every cost-model fixture
//!   decode to `Ok` or a typed error, never a panic.

use dp_greedy_suite::engine::{find, RunContext};
use dp_greedy_suite::model::json::{self, FromJson};
use dp_greedy_suite::model::par::THREADS_ENV;
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{CostModel, CostPlane};
use dp_greedy_suite::trace::io::{TraceFile, TraceIoError};

/// Every committed trace fixture. Empty would silently gut the suite,
/// so it asserts.
fn fixture_paths() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixtures/traces unreadable: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no trace fixtures committed");
    paths
}

fn pack_to_temp(file: &TraceFile, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dpg-trace-binary-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.dpgb"));
    file.save_binary(&path).unwrap();
    path
}

#[test]
fn every_fixture_round_trips_bit_exactly() {
    for path in fixture_paths() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let original = TraceFile::load(&path).unwrap();
        let packed = pack_to_temp(&original, &name);
        let back = TraceFile::load(&packed).unwrap();
        assert_eq!(original, back, "{name}: binary round trip diverged");
        for (a, b) in original
            .sequence
            .requests()
            .iter()
            .zip(back.sequence.requests())
        {
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "{name}: time bits");
        }
        std::fs::remove_file(&packed).ok();
    }
}

/// The acceptance-criteria identity: a packed fixture must solve to
/// byte-identical output. Environment mutation is confined to this one
/// test; results are thread-invariant by construction, so concurrent
/// tests cannot observe a difference.
#[test]
fn packed_fixtures_solve_byte_identically_across_thread_counts() {
    let solver = find("dp_greedy").unwrap();
    let ctx = RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3);
    for path in fixture_paths() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let original = TraceFile::load(&path).unwrap();
        let packed_path = pack_to_temp(&original, &format!("solve-{name}"));
        let packed = TraceFile::load(&packed_path).unwrap();
        let mut reference: Option<(String, u64)> = None;
        for threads in [1, 2, 4] {
            std::env::set_var(THREADS_ENV, threads.to_string());
            let from_json = solver.solve(&original.sequence, &ctx);
            let from_binary = solver.solve(&packed.sequence, &ctx);
            let json_print = (
                from_json.ledger().to_jsonl_string(),
                from_json.total_cost.to_bits(),
            );
            let binary_print = (
                from_binary.ledger().to_jsonl_string(),
                from_binary.total_cost.to_bits(),
            );
            assert_eq!(
                json_print, binary_print,
                "{name} @ {threads} threads: packed trace solved differently"
            );
            match &reference {
                None => reference = Some(json_print),
                Some(r) => assert_eq!(r, &json_print, "{name} @ {threads} threads: not invariant"),
            }
        }
        std::env::remove_var(THREADS_ENV);
        std::fs::remove_file(&packed_path).ok();
    }
}

#[test]
fn truncated_and_tampered_binaries_are_rejected() {
    let original = TraceFile::load(&fixture_paths()[0]).unwrap();
    let mut bytes = Vec::new();
    original.write_binary_to(&mut bytes).unwrap();

    // Truncation anywhere past the magic — header, records, entries.
    for cut in [4usize, 10, 40, 60, bytes.len() - 3] {
        let err = TraceFile::read_from(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Binary { .. }),
            "cut at {cut}: expected Binary error, got {err}"
        );
    }
    // A cut inside the magic itself can't be identified as binary; it
    // still fails cleanly (as JSON), never panics or half-parses.
    TraceFile::read_from(&bytes[..2]).unwrap_err();

    // A record time zeroed out violates strict time monotonicity and
    // must be caught by the builder's revalidation.
    let mut tampered = bytes.clone();
    tampered[48 + 24..48 + 32].copy_from_slice(&0f64.to_bits().to_le_bytes());
    let err = TraceFile::read_from(tampered.as_slice()).unwrap_err();
    assert!(
        err.to_string().contains("invalid request sequence"),
        "{err}"
    );

    // An unknown future version is a Version error, not a decode attempt.
    let mut versioned = bytes;
    versioned[4..8].copy_from_slice(&7u32.to_le_bytes());
    let err = TraceFile::read_from(versioned.as_slice()).unwrap_err();
    assert!(matches!(err, TraceIoError::Version { found: 7 }), "{err}");
}

/// Decodes `bytes` as a trace file (JSON or DPGB, auto-detected) or, when
/// `trace` is false, as a `--cost-model` file the way `dpg` reads one.
/// Every failure is one of the decoders' typed errors, rendered.
fn decode(trace: bool, bytes: &[u8]) -> Result<(), String> {
    if trace {
        return TraceFile::read_from(bytes)
            .map(drop)
            .map_err(|e| e.to_string());
    }
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let value = json::parse(text).map_err(|e| e.msg)?;
    CostPlane::from_json(&value).map(drop).map_err(|e| e.msg)
}

/// Copies of every trace fixture, as JSON and as DPGB, and of every
/// `fixtures/cost_models/*.json`, cut at 64 positions, with one random
/// byte changed (128 copies), and with 200 nested `[` spliced in (after
/// the first `:` of a JSON file, where a value starts, so the parser
/// must reach its nesting limit; at a random offset of a DPGB file). No
/// decode panics; the originals decode, and every nested JSON copy is
/// refused at the nesting limit.
#[test]
fn mutated_traces_and_cost_models_decode_or_fail_typed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut inputs: Vec<(String, bool, Vec<u8>)> = Vec::new();
    for path in fixture_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let json = std::fs::read(&path).unwrap();
        let mut dpgb = Vec::new();
        TraceFile::read_from(json.as_slice())
            .unwrap()
            .write_binary_to(&mut dpgb)
            .unwrap();
        inputs.push((name.clone(), true, json));
        inputs.push((format!("{name} (DPGB)"), true, dpgb));
    }
    let mut models: Vec<_> = std::fs::read_dir(root.join("fixtures/cost_models"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    models.sort();
    assert_eq!(models.len(), 4, "{models:?}");
    for path in models {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        inputs.push((name, false, std::fs::read(&path).unwrap()));
    }

    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    let mut decodes = 0;
    for (name, trace, original) in &inputs {
        let len = original.len();
        assert_eq!(decode(*trace, original), Ok(()), "{name}");
        let mut copies: Vec<(String, Vec<u8>)> = Vec::new();
        for _ in 0..64 {
            let cut = rng.gen_range(0..len);
            copies.push((format!("cut at {cut}"), original[..cut].to_vec()));
        }
        for _ in 0..128 {
            let (at, flip) = (rng.gen_range(0..len), rng.gen_range(1u8..=255));
            let mut copy = original.clone();
            copy[at] ^= flip;
            copies.push((format!("byte {at} ^ {flip:#04x}"), copy));
        }
        let is_json = original.first() == Some(&b'{');
        let at = match original.iter().position(|&b| b == b':') {
            Some(colon) if is_json => colon + 1,
            _ => rng.gen_range(0..len),
        };
        let mut nested = original.clone();
        nested.splice(at..at, std::iter::repeat_n(b'[', 200));
        copies.push((format!("200 [ at {at}"), nested));

        for (how, bytes) in copies {
            let result = std::panic::catch_unwind(|| decode(*trace, &bytes))
                .unwrap_or_else(|_| panic!("{name}, {how}: the decoder panicked"));
            if how.starts_with("200 [") && is_json {
                let err = result.expect_err(&how);
                assert!(
                    err.contains("nesting deeper than 128 levels"),
                    "{name}: {err}"
                );
            }
            decodes += 1;
        }
    }
    assert_eq!(decodes, inputs.len() * 193);
}
