//! Deterministic fault-injection sweep. See `bench::chaos`.

fn main() -> std::io::Result<()> {
    let opts = bench::chaos::ChaosOptions::from_args(std::env::args().skip(1));
    bench::chaos::chaos_sweep(&opts)
}
