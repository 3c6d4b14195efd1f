//! Thin wrapper: regenerates the `fig4_hdsearch` artefact via the study
//! registry (see `tpv_bench::study`). As a driver it reads `TPV_RUNS` /
//! `TPV_RUN_SECS` / `TPV_SEED` and writes the CSVs under `results/`;
//! run `all_experiments` for the whole suite with a shared run cache.

fn main() {
    tpv_bench::study::run_by_name("fig4_hdsearch");
}
