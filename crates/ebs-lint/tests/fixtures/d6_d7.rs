pub fn d6_leak(m: &FxHashMap<u64, u64>) -> Vec<u64> {
    m.values().copied().collect()
}

pub fn d6_sorted(m: &FxHashMap<u64, u64>) -> Vec<u64> {
    let mut out: Vec<u64> = m.values().copied().collect();
    out.sort_unstable();
    out
}

pub fn d7_leak(items: &[f64], total: &Mutex<f64>) {
    par_map_deterministic(items, |_i, x| {
        *total.lock().expect("poisoned") += *x;
    });
}

pub fn d7_local(items: &[f64]) -> Vec<f64> {
    par_map_deterministic(items, |_i, x| {
        let mut acc = 0.0f64;
        acc += *x;
        acc
    })
}

pub struct Partial {
    pub sum: f64,
}

impl Partial {
    pub fn merge(&mut self, other: &Partial) {
        self.sum += other.sum;
    }
}

pub struct Positional {
    pub bins: Vec<f64>,
}

impl Positional {
    pub fn merge(&mut self, other: &Positional) {
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += *src;
        }
    }
}
