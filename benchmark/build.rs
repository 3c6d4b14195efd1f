//! Records the build profile the benchmark binary was compiled with, so
//! the binary can refuse to time anything but the workspace's release
//! profile (fat LTO, one codegen unit). Build settings change speed
//! without changing code, so an unpinned build would make two runs of
//! the same commit incomparable.

use std::collections::BTreeMap;
use std::path::Path;

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_default();
    let mut table = BTreeMap::new();
    let mut inside = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            if let Some((key, value)) = line.split_once('=') {
                table.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
    }
    table
}

fn main() {
    let own = Path::new("Cargo.toml");
    let root = Path::new("../Cargo.toml");
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-changed=../Cargo.toml");
    let overrides = [
        "CARGO_PROFILE_RELEASE_LTO",
        "CARGO_PROFILE_RELEASE_CODEGEN_UNITS",
        "CARGO_PROFILE_RELEASE_OPT_LEVEL",
    ];
    for var in overrides {
        println!("cargo:rerun-if-env-changed={var}");
    }
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");

    let own_table = release_profile(own);
    let root_table = release_profile(root);
    let overridden: Vec<&str> = overrides.into_iter().filter(|v| std::env::var_os(v).is_some()).collect();
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let pinned = !root_table.is_empty()
        && own_table == root_table
        && root_table.get("lto").map(String::as_str) == Some("\"fat\"")
        && root_table.get("codegen-units").map(String::as_str) == Some("1")
        && overridden.is_empty()
        && rustflags.is_empty();

    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_default();
    let settings: Vec<String> =
        own_table.iter().map(|(k, v)| format!("{k}={}", v.trim_matches('"'))).collect();
    println!("cargo:rustc-env=TPV_BENCH_PROFILE={profile}");
    println!("cargo:rustc-env=TPV_BENCH_OPT_LEVEL={opt_level}");
    println!("cargo:rustc-env=TPV_BENCH_PROFILE_SETTINGS={}", settings.join(","));
    println!("cargo:rustc-env=TPV_BENCH_PROFILE_PINNED={pinned}");
}
