//! Seeded dropped deadlines: `outer_bounded` consults its deadline but
//! forwards nothing to `inner_bounded` — and `inner_bounded` takes no
//! `Deadline` at all, so the bound evaporates one call down. `step3`
//! hands `solve_jv_bounded` a fresh unbounded deadline instead of its
//! own.

pub fn outer_bounded(cfg: &Config, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    inner_bounded(cfg)
}

pub fn inner_bounded(cfg: &Config) -> Result<(), Error> {
    run(cfg)
}

pub fn step3(matrix: &Matrix, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    solve_jv_bounded(matrix, &Deadline::NONE)
}

pub fn solve_jv_bounded(matrix: &Matrix, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    run(matrix)
}
