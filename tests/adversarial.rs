//! Hostile one-file projects: inputs built to push the interpreter's
//! data structures into their worst case. Each pins its exact result and
//! step count (both deterministic) and must finish under a wall-clock
//! bound that leaves at least 5× margin over a debug build's time.

use aji_ast::Project;
use aji_interp::Interp;
use std::time::{Duration, Instant};

/// Runs `src` as `index.js` and returns `exports.result` as a string,
/// the interpreter's step count and the wall-clock time taken.
fn run(src: &str) -> (String, u64, Duration) {
    let start = Instant::now();
    let mut p = Project::new("adversarial");
    p.add_file("index.js", src);
    let mut interp = Interp::new(&p).expect("parse");
    let exports = interp
        .run_module("index.js")
        .unwrap_or_else(|e| panic!("run failed: {e}"));
    let r = interp
        .get_property_public(&exports, "result")
        .expect("result");
    let result = interp.to_string_public(&r);
    (result, interp.steps(), start.elapsed())
}

/// 89,000 computed keys that share a 13-byte prefix and differ only in
/// their last three bytes — the high bytes of the key's last 8-byte word.
/// A hasher that folds whole words with a multiply leaves those
/// differences out of the low hash bits, so every key lands in the same
/// buckets of a property index built on it.
#[test]
fn crafted_key_flood_stays_fast() {
    let (result, steps, took) = run("var A = 'ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrs';\n\
         function key(i) {\n\
           return 'flood_prefix_' + A.charAt(i % 45) + A.charAt(Math.floor(i / 45) % 45)\n\
             + A.charAt(Math.floor(i / 2025));\n\
         }\n\
         function flood(n) {\n\
           var o = {};\n\
           for (var i = 0; i < n; i++) { o[key(i)] = i; }\n\
           var sum = 0;\n\
           for (var j = 0; j < n; j++) { sum += o[key(j)]; }\n\
           return sum + ':' + (o['flood_prefix_!!!'] === undefined);\n\
         }\n\
         exports.result = flood(89000);");
    assert_eq!(result, "3960455500:true");
    assert_eq!(steps, 7_031_035);
    // About 4.2 s in a debug build on a 2-core Xeon VM.
    assert!(took < Duration::from_secs(30), "key flood took {took:?}");
}

/// Add/delete churn of 89,000 keys on one object that never holds more
/// than 8 live properties. Deleted entries stay behind as tombstones
/// (slot numbers are stable for the inline caches), so a property map
/// that decided when to index by its live count would scan an
/// ever-growing vector on every access.
#[test]
fn add_delete_churn_stays_fast() {
    let (result, steps, took) = run("function churn(n) {\n\
           var o = {};\n\
           for (var i = 0; i < n; i++) {\n\
             if (i >= 8) { delete o['key' + (i - 8)]; }\n\
             o['key' + i] = i;\n\
           }\n\
           var sum = 0;\n\
           for (var k in o) { sum += o[k]; }\n\
           return Object.keys(o).length + ':' + sum;\n\
         }\n\
         exports.result = churn(89000);");
    assert_eq!(result, "8:711964");
    assert_eq!(steps, 2_403_003);
    // About 1.1 s in a debug build on a 2-core Xeon VM; a map that
    // indexes by live count takes about 96 s there.
    assert!(took < Duration::from_secs(10), "churn took {took:?}");
}
