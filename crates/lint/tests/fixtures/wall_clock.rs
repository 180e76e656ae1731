use std::time::Instant;

pub fn measure() -> u64 {
    let started = Instant::now();
    started.elapsed().as_nanos() as u64
}

pub fn gated(timed: bool) -> Option<Instant> {
    timed.then(Instant::now)
}

pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
