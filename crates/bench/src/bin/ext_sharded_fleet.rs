//! Thin wrapper: regenerates the `ext_sharded_fleet` artefact via the study
//! registry (see `tpv_bench::study`). As a driver it reads `TPV_RUNS` /
//! `TPV_RUN_SECS` / `TPV_SEED` and writes the CSVs under `results/`;
//! run `all_experiments` for the whole suite with a shared run cache.

fn main() {
    tpv_bench::study::run_by_name("ext_sharded_fleet");
}
