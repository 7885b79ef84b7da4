//! RAII timing guards for control-loop stages.

use crate::registry::Histogram;
use std::time::Instant;

/// Times a scope into a histogram on drop. Cheap: two `Instant` reads
/// and a few atomics, no events.
#[must_use = "a Timer measures until it is dropped"]
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Timer {
    /// Start timing into a cached histogram handle.
    pub fn start(hist: Histogram) -> Self {
        Timer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::Timer;
    use crate::Telemetry;

    #[test]
    fn timer_observes_on_drop() {
        let t = Telemetry::new();
        {
            let _timer = Timer::start(t.histogram("stage_seconds", &[]));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = t.histogram("stage_seconds", &[]);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 0.002, "timed {}", h.max());
    }
}
