//! Seeded dropped deadlines: `outer_bounded` consults its deadline but
//! forwards nothing to `inner_bounded` — and `inner_bounded` takes no
//! `Deadline` at all, so the bound evaporates one call down. `step3`
//! hands `anneal_search` a fresh unbounded deadline: the callee's name
//! promises nothing, but its signature takes a `Deadline`.

pub fn outer_bounded(cfg: &Config, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    inner_bounded(cfg)
}

pub fn inner_bounded(cfg: &Config) -> Result<(), Error> {
    run(cfg)
}

pub fn step3(matrix: &Matrix, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    anneal_search(matrix, 7, &Deadline::NONE)
}

pub fn anneal_search(matrix: &Matrix, seed: u64, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    run(matrix, seed)
}
