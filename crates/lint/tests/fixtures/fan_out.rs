pub fn scoped(items: &[u32]) -> u32 {
    std::thread::scope(|scope| scope.spawn(|| items.len() as u32).join().unwrap_or(0))
}

pub fn detached() {
    let _ = std::thread::spawn(|| ());
    let _ = std::thread::Builder::new().name("worker".into());
}

pub fn width() -> usize {
    // Reading the core count, or naming the module, starts nothing.
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

use std::thread;

pub fn imported() {
    thread::scope(|_| ());
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
