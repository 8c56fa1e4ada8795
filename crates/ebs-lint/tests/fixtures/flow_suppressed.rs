pub fn d6_suppressed(m: &FxHashMap<u64, u64>) -> u64 {
    let mut acc = 0;
    // ebs-lint: allow(D6) -- commutative integer sum, iteration order is unobservable
    for (_k, v) in m {
        acc += v;
    }
    acc
}

pub struct Telemetry {
    pub seconds: f64,
}

impl Telemetry {
    pub fn merge(&mut self, other: &Telemetry) {
        // ebs-lint: allow(D7) -- wall-clock telemetry fold, never reaches deterministic output
        self.seconds += other.seconds;
    }
}
