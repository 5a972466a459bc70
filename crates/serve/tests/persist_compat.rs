//! The cache-format compatibility gate: loading a committed fixture of
//! the v1 on-disk layout must never panic, and every stale or damaged
//! entry must be skipped and counted. The fixtures are adversarial by
//! construction — a stale compiler stamp, an unknown format version, a
//! digest mismatch, torn JSON, and a valid header over an unparseable
//! artifact — so this test stays green across version bumps: entries
//! that today fail one specific check simply fail the stamp check
//! instead after a bump, and either way they are *skipped*, never
//! trusted and never fatal.
//!
//! Seven fixtures are not damaged at all; each is an entry exactly as the
//! last build of its format wrote it (digest, filename and compiler
//! stamp all match, and that build re-admits it), and each must be
//! skipped on its format alone:
//!
//! - `996b1781….json`, format 1, a one-`relu` graph. Format 2 changed
//!   how keys are encoded, so no request can ask for that key any more.
//! - `5589697d….json`, format 2, a one-conv graph under `Both`, so it
//!   carries a `fallbacks` table. Format 3 dropped the table from the
//!   artifact and the option that selected it from the key.
//! - `cafb8575….json`, format 3, the same one-conv graph under `Both`.
//!   Its key is still the key that graph gets, but its weights are
//!   decimal text; format 4 writes every tensor payload as base64 of its
//!   native-width bytes.
//! - `6ca838bf….json`, format 4, a conv → softmax graph under `Both`
//!   (a base64 weight payload and a CPU segment). Its key and artifact
//!   bytes are what this build writes, but it has no artifact digest;
//!   format 5 checks one.
//! - `ff397f6f….json`, format 5, the same conv → softmax graph under
//!   `Digital`. Its artifact bytes and artifact digest are what this
//!   build writes, but its key id is FNV-1a of key bytes whose weight
//!   digest read the `I8` payload widened to `i32`; format 6 digests a
//!   payload at its native width and the key with MurmurHash3.
//! - `f750abe5….json`, format 6, the same conv → softmax graph under
//!   `Digital`. Its artifact is what this build writes plus the
//!   per-layer `assignments` rows and the DMA table's platform stamp;
//!   format 7 stores neither, and its artifact refuses a member it does
//!   not declare.
//! - `92e32266….json`, format 7, the same conv → softmax graph under
//!   `Both`. Its artifact is what this build writes, byte for byte, but
//!   its key's lowering fingerprint still carries the naive-L2 switch,
//!   the L1-budget override and the binary-size model; format 8 keeps
//!   only the two tiling objectives, so its key id is one no format-8
//!   key has.
//!
//! The digest-mismatch, bad-artifact and stale-stamp fixtures move to
//! the current format with the constant (renamed to their new key ids),
//! so each still fails the one check it was written for.
//!
//! Three more entries are hostile rather than stale: written at run
//! time from a real compiled artifact, each carries one edit. Two are
//! caught by the artifact's own types — a CPU-segment graph whose
//! operand points past its own node, and an accelerator weight payload
//! one element short; a `Graph` and a `Tensor` are checked as they are
//! deserialized. The third still parses — `activation_peak` one byte
//! higher — and only the envelope's artifact digest catches it. All
//! three are skipped and counted.

use htvm::DeployConfig;
use htvm_ir::{DType, GraphBuilder, Tensor};
use htvm_serve::{
    compiler_stamp, ArtifactCache, CompileService, JobRequest, PersistStore, ServeConfig,
    CACHE_FORMAT_VERSION,
};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/persist_v1")
}

/// Number of committed fixture entries (none of them admissible).
const FIXTURE_ENTRIES: u64 = 12;

/// The well-formed format-1 to format-7 entries, by key id.
const FORMAT_1_ENTRY: &str = "996b17818e8887b0f52139322832f58b";
const FORMAT_2_ENTRY: &str = "5589697de5eba32e8d0575b5220b8c1d";
const FORMAT_3_ENTRY: &str = "cafb8575a4b4c4b66618fcfe1361da02";
const FORMAT_4_ENTRY: &str = "6ca838bf4d67d56101c87af13b7bff76";
const FORMAT_5_ENTRY: &str = "ff397f6f57a7a2f319514d39b61dd63d";
const FORMAT_6_ENTRY: &str = "f750abe552658381ae828495ed33b377";
const FORMAT_7_ENTRY: &str = "92e3226659d58c1ca705454dda194923";

#[test]
fn layout_constants_are_pinned() {
    // The committed fixtures encode layout v1; if either constant
    // moves, the fixtures (and every deployed cache directory) need a
    // deliberate migration, not a silent drift. Format 1 -> 2 was one:
    // constant payloads are keyed by MurmurHash3 instead of FNV-1a, so
    // every format-1 key is unreachable and its entry is skipped.
    // Format 2 -> 3 was another: the artifact lost its `fallbacks` table
    // and the key the flag that selected it. Format 3 -> 4 kept every
    // key but rewrote every tensor payload from decimal text to base64.
    // Format 4 -> 5 kept keys and artifact bytes and added the envelope's
    // artifact digest. Format 5 -> 6 kept artifact bytes and moved every
    // key id: payloads are digested at their native width, and the key
    // with MurmurHash3 instead of FNV-1a. Format 6 -> 7 kept every key
    // and dropped the artifact's per-layer rows and DMA-table stamp.
    // Format 7 -> 8 kept artifact bytes and moved every key: the lowering
    // fingerprint lost all but the two tiling objectives.
    assert_eq!(CACHE_FORMAT_VERSION, 8);
    assert_eq!(htvm_serve::persist::CACHE_LAYOUT_DIR, "v1");
}

/// The committed `key_id` entry's text.
fn read_fixture(key_id: &str) -> String {
    std::fs::read_to_string(fixture_root().join(format!("v1/diana/{key_id}.json")))
        .expect("fixture reads")
}

/// Loads the committed `key_id` entry alone in a scratch directory (so
/// the count is about this entry) and returns its text after checking
/// that it was skipped, and that neither the compiler stamp (this
/// build's) nor the filename (the entry's key id) is what kept it out.
fn skipped_on_its_format_alone(format: u32, key_id: &str) -> String {
    let file = format!("{key_id}.json");
    let text = read_fixture(key_id);
    let header = format!(
        r#"{{"format":{format},"compiler":"{}","key_id":"{key_id}","#,
        compiler_stamp()
    );
    assert!(text.starts_with(&header));

    let scratch =
        std::env::temp_dir().join(format!("htvm-compat-f{format}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let store = PersistStore::open(&scratch, "diana").expect("scratch dir opens");
    std::fs::write(scratch.join("v1/diana").join(&file), &text).expect("fixture copies");
    let stats = store.load_into(&ArtifactCache::new(64 << 20));
    assert_eq!((stats.load_ok, stats.load_skipped), (0, 1));
    let _ = std::fs::remove_dir_all(&scratch);
    text
}

#[test]
fn a_well_formed_format_1_entry_is_skipped_on_its_format_alone() {
    skipped_on_its_format_alone(1, FORMAT_1_ENTRY);
}

#[test]
fn a_well_formed_format_2_entry_is_skipped_on_its_format_alone() {
    // Written for a one-conv graph, so it really carries the table
    // format 3 dropped.
    let text = skipped_on_its_format_alone(2, FORMAT_2_ENTRY);
    assert!(text.contains(r#""fallbacks":{"entries":[[0,{"#));
}

#[test]
fn a_well_formed_format_3_entry_is_skipped_on_its_format_alone() {
    // The same graph compiles to the same key today; only the payload
    // text of its weights is of the old format.
    let text = skipped_on_its_format_alone(3, FORMAT_3_ENTRY);
    assert!(text.contains(r#""weights":{"dtype":"I8","shape":[4,4,3,3],"data":[-3,-2,-1,0,"#));
}

#[test]
fn a_well_formed_format_4_entry_is_skipped_on_its_format_alone() {
    // Today's key and artifact bytes for this graph; only the envelope
    // lacks the digest format 5 checks.
    let text = skipped_on_its_format_alone(4, FORMAT_4_ENTRY);
    assert!(text.contains(r#""key_hex":""#) && !text.contains("artifact_digest"));
    assert!(text.contains(r#""weights":{"dtype":"I8","shape":[8,8,3,3],"data":"AAAA"#));
    assert!(text.contains(r#""CpuFused""#));
}

#[test]
fn a_well_formed_format_5_entry_is_skipped_on_its_format_alone() {
    let text = skipped_on_its_format_alone(5, FORMAT_5_ENTRY);
    let entry: serde_json::Value = serde_json::from_str(&text).unwrap();
    let key_bytes = hex_decode(entry["key_hex"].as_str().unwrap());
    assert_eq!(
        format!("{:032x}", htvm_ir::fnv128(&key_bytes)),
        FORMAT_5_ENTRY,
        "a format-5 key id is FNV-1a of the key bytes"
    );

    // Format 6 wrote the same artifact for the same job, under a
    // different key and key id (the format-6 test below ties that entry
    // to what this build writes).
    let then: serde_json::Value =
        serde_json::from_str(&read_fixture(FORMAT_6_ENTRY)).expect("an envelope");
    assert_ne!(then["key_id"], entry["key_id"]);
    assert_ne!(then["key_hex"], entry["key_hex"]);
    assert_eq!(then["artifact_digest"], entry["artifact_digest"]);
    assert_eq!(then["artifact"], entry["artifact"]);
}

#[test]
fn a_well_formed_format_6_entry_is_skipped_on_its_format_alone() {
    let text = skipped_on_its_format_alone(6, FORMAT_6_ENTRY);
    let entry: serde_json::Value = serde_json::from_str(&text).unwrap();
    let stored = serde_json::to_string(&entry["artifact"]).unwrap();
    let err = serde_json::from_str::<htvm::Artifact>(&stored)
        .expect_err("a format-6 artifact carries a member format 7 does not declare")
        .to_string();
    assert!(err.contains("assignments"), "{err}");

    // This build's artifact for the same job is the format-6 text
    // without the two stored copies.
    let now = written_now("f6", DeployConfig::Digital);
    // The rows are the artifact's last member, the stamp the table's
    // first: cut both, then close the artifact object again.
    let (fields, rows) = stored
        .rsplit_once(r#","assignments":["#)
        .expect("a format-6 artifact stores its rows");
    assert_eq!(rows.matches(r#""name":"#).count(), 2, "one row per step");
    let (head, stamped) = fields
        .split_once(r#""dma":{"platform_digest":"#)
        .expect("a format-6 DMA table is stamped");
    let entries = &stamped[stamped.find(',').expect("entries follow the stamp") + 1..];
    let then = format!(r#"{head}"dma":{{{entries}}}"#);
    assert_eq!(serde_json::to_string(&now["artifact"]).unwrap(), then);
}

#[test]
fn a_well_formed_format_7_entry_is_skipped_on_its_format_alone() {
    let text = skipped_on_its_format_alone(7, FORMAT_7_ENTRY);
    let entry: serde_json::Value = serde_json::from_str(&text).unwrap();

    // This build writes the same artifact for the same job, byte for
    // byte, under a key whose fingerprint lost three members.
    let now = written_now("f7", DeployConfig::Both);
    assert_eq!(now["artifact_digest"], entry["artifact_digest"]);
    assert_eq!(
        serde_json::to_string(&now["artifact"]).unwrap(),
        serde_json::to_string(&entry["artifact"]).unwrap()
    );
    assert_ne!(now["key_id"], entry["key_id"]);
    let then = String::from_utf8(hex_decode(entry["key_hex"].as_str().unwrap())).unwrap();
    let (head, members) = then
        .split_once(r#","naive_l2":false,"l1_act_override":null,"size_model":{"#)
        .expect("a format-7 fingerprint carries the three members");
    let (model, tail) = members.split_once('}').expect("the size model closes");
    assert!(model.starts_with(r#""runtime_tvm":"#), "{model}");
    let now_key = hex_decode(now["key_hex"].as_str().unwrap());
    assert_eq!(String::from_utf8(now_key).unwrap(), format!("{head}{tail}"));
}

/// The persist entry this build writes for `conv_softmax_graph` under
/// `deploy`, as a fresh service spills it.
fn written_now(job: &str, deploy: DeployConfig) -> serde_json::Value {
    let scratch =
        std::env::temp_dir().join(format!("htvm-compat-{job}-now-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let service = CompileService::new(ServeConfig {
        workers: 1,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(scratch.clone()),
        ..ServeConfig::default()
    });
    let result = service
        .submit(JobRequest::compile_only(job, conv_softmax_graph(), deploy))
        .expect("compiles");
    let text = std::fs::read_to_string(scratch.join(format!("v1/diana/{}.json", result.key_id)))
        .expect("entry spilled");
    let _ = std::fs::remove_dir_all(&scratch);
    serde_json::from_str(&text).expect("an envelope")
}

fn hex_decode(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// The three current-format fixtures each break exactly the check named
/// for them, and pass every check that runs before it.
#[test]
fn current_format_fixtures_fail_only_the_check_they_were_written_for() {
    for (file, breaks) in [
        ("00000000000000000000000000000000", "key digest"),
        ("3a69ab21a84716c2ceb261c440da6443", "artifact"),
        ("b3d6568defd1e3a347ce91054235e353", "compiler stamp"),
    ] {
        let entry: serde_json::Value =
            serde_json::from_str(&read_fixture(file)).expect("an envelope");
        assert_eq!(entry["format"], CACHE_FORMAT_VERSION, "{file}");
        assert!(entry["artifact_digest"].as_str().is_some(), "{file}");
        assert_eq!(
            entry["compiler"] == compiler_stamp().as_str(),
            breaks != "compiler stamp",
            "{file}"
        );
        let key =
            htvm_serve::ArtifactKey::from_bytes(hex_decode(entry["key_hex"].as_str().unwrap()));
        assert_eq!(entry["key_id"], file, "{file}");
        assert_eq!(key.id() == file, breaks != "key digest", "{file}");
    }
}

#[test]
fn stale_and_damaged_v1_entries_are_skipped_not_fatal() {
    let store = PersistStore::open(&fixture_root(), "diana").expect("fixture dir opens");
    let cache = ArtifactCache::new(64 << 20);
    let stats = store.load_into(&cache);
    assert_eq!(stats.load_ok, 0, "no fixture entry is trustworthy");
    assert_eq!(
        stats.load_skipped, FIXTURE_ENTRIES,
        "every fixture entry is skipped and counted"
    );
    assert_eq!(cache.stats().insertions, 0, "nothing was admitted");
}

#[test]
fn a_service_boots_cold_over_a_stale_cache_and_serves() {
    // Copy the fixtures to scratch space: the booted service will spill
    // fresh entries next to them, and the committed tree must stay
    // pristine.
    let scratch = std::env::temp_dir().join(format!("htvm-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let dir = scratch.join("v1/diana");
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    for entry in std::fs::read_dir(fixture_root().join("v1/diana")).expect("fixtures list") {
        let entry = entry.expect("fixture entry reads");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("fixture copies");
    }

    let service = CompileService::new(ServeConfig {
        workers: 2,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(scratch.clone()),
        ..ServeConfig::default()
    });
    let booted = service.stats();
    assert_eq!(booted.persist_load_ok, 0);
    assert_eq!(booted.persist_load_skipped, FIXTURE_ENTRIES);

    // The cold boot is still a working service: compile one job and
    // spill it durably alongside the stale entries.
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[8, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    let graph = b.finish(&[y]).unwrap();
    let result = service
        .submit(JobRequest::compile_only("fresh", graph, DeployConfig::Both))
        .expect("a cold service still compiles");
    assert!(!result.cache_hit);
    assert_eq!(service.stats().persist_writes, 1);
    let spilled = std::fs::read_to_string(dir.join(format!("{}.json", result.key_id)))
        .expect("the fresh entry sits next to the old ones");
    assert!(spilled.starts_with(r#"{"format":8,"#));

    let _ = std::fs::remove_dir_all(&scratch);
}

/// A one-conv graph whose requantized output feeds a softmax: the conv
/// runs on an accelerator (a weight payload in the artifact), the
/// softmax on the CPU (a segment graph in the artifact).
fn conv_softmax_graph() -> htvm_ir::Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[8, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    let f = b.flatten(y).unwrap();
    let s = b.softmax(f).unwrap();
    b.finish(&[s]).unwrap()
}

/// Rewrites the value that opens with the first `field` after the first
/// `anchor` in `text` and runs to the next `close`: what stands between
/// the two becomes `edit(what)`.
fn edit_first_after(
    text: &str,
    anchor: &str,
    field: &str,
    close: char,
    edit: impl Fn(&str) -> String,
) -> String {
    let from = text.find(anchor).expect("anchor present");
    let open = from + text[from..].find(field).expect("field present") + field.len();
    let close = open + text[open..].find(close).expect("value closes");
    format!(
        "{}{}{}",
        &text[..open],
        edit(&text[open..close]),
        &text[close..]
    )
}

#[test]
fn hostile_entries_from_real_artifacts_are_skipped_not_fatal() {
    let scratch = std::env::temp_dir().join(format!("htvm-compat-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let config = || ServeConfig {
        workers: 1,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(scratch.clone()),
        ..ServeConfig::default()
    };

    // Three real entries, one per deploy (so three keys), each then edited.
    let writer = CompileService::new(config());
    let dir = scratch.join("v1/diana");
    let mut entries = Vec::new();
    let deploys = [
        DeployConfig::Digital,
        DeployConfig::Both,
        DeployConfig::CpuTvm,
    ];
    for deploy in deploys {
        let result = writer
            .submit(JobRequest::compile_only(
                "real",
                conv_softmax_graph(),
                deploy,
            ))
            .expect("compiles");
        let path = dir.join(format!("{}.json", result.key_id));
        let text = std::fs::read_to_string(&path).expect("entry spilled");
        entries.push((path, text));
    }
    assert_eq!(writer.stats().persist_writes, 3);
    drop(writer);

    // The segment's first operator reads node 99, after itself.
    let (path, text) = &entries[0];
    let past_itself = edit_first_after(text, r#""CpuFused""#, r#""inputs":["#, ']', |list| {
        let rest = list.find(',').map_or("", |at| &list[at..]);
        format!("99{rest}")
    });
    assert_ne!(&past_itself, text);
    std::fs::write(path, past_itself).unwrap();
    // The conv's weight payload, 576 zero bytes, loses its last element.
    let (path, text) = &entries[1];
    let zeros = |n| serde_json::to_value(Tensor::zeros(DType::I8, &[n]))["data"].clone();
    let one_short = edit_first_after(text, r#""weights":{"#, r#""data":""#, '"', |data| {
        assert_eq!(zeros(576), data, "the payload the graph was built with");
        zeros(575).as_str().unwrap().to_owned()
    });
    assert_eq!(
        one_short.len(),
        text.len(),
        "575 bytes pad to as many characters"
    );
    assert_ne!(&one_short, text);
    std::fs::write(path, one_short).unwrap();
    // The program claims one more byte of activation memory: the
    // artifact still parses, but not to the bytes that were written.
    let (path, text) = &entries[2];
    let one_more = edit_first_after(
        text,
        r#""artifact":"#,
        r#""activation_peak":"#,
        ',',
        |peak| (peak.parse::<u64>().expect("a byte count") + 1).to_string(),
    );
    assert_ne!(&one_more, text);
    std::fs::write(path, one_more).unwrap();

    // Boot continues over all three, counts them, and still serves.
    let service = CompileService::new(config());
    let booted = service.stats();
    assert_eq!(
        (booted.persist_load_ok, booted.persist_load_skipped),
        (0, 3)
    );
    for deploy in deploys {
        let result = service
            .submit(JobRequest::compile_only(
                "again",
                conv_softmax_graph(),
                deploy,
            ))
            .expect("the booted service compiles");
        assert!(!result.cache_hit, "a hostile entry was admitted");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
