//! Pluggable event sinks: where detections go once the engine finds them.
//!
//! The service-style engine decouples *detecting* drifts from *consuming*
//! them. Worker threads push every [`DriftEvent`] through the [`EventSink`]s
//! configured on the [`crate::EngineBuilder`], so detections can fan out to
//! alerting, storage or in-process consumers without the submitting thread
//! ever seeing them. Three implementations ship with the crate:
//!
//! * [`MemorySink`] — buffers events in memory for later draining: pair it
//!   with [`crate::EngineHandle::flush`] for collect-and-return semantics.
//!   This is what the evaluation harness uses.
//! * [`JsonLinesSink`] — serializes each event as one JSON object per line
//!   to any `Write` target (a file, stdout, a socket), the standard
//!   interchange shape for log shippers.
//! * [`CallbackSink`] — invokes an arbitrary closure per event, the hook for
//!   custom alerting buses.
//!
//! Ordering guarantee: a sink observes any single stream's events in
//! increasing sequence order (each stream is owned by exactly one worker),
//! but events of *different* streams interleave arbitrarily. Sinks must be
//! `Send + Sync`: every worker thread emits into the same sink instances.
//! `emit` is called from the hot path, so implementations should do bounded
//! work per event.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::event::DriftEvent;

/// A consumer of [`DriftEvent`]s, shared by all engine worker threads.
///
/// Implementations must **not call back into the emitting engine's own
/// [`crate::EngineHandle`]** (submit, flush, stats, …) from
/// [`EventSink::emit`] or [`EventSink::flush`]: sinks run inline on the
/// worker threads, and a barrier — or a submit into a full queue — sent
/// from a worker would wait on that worker itself, deadlocking the engine.
/// Forward events to *another* engine, a channel, or a buffer instead.
pub trait EventSink: Send + Sync {
    /// Consumes one event. Called by engine workers as soon as a detector
    /// fires; implementations must not block for long.
    fn emit(&self, event: &DriftEvent);

    /// Flushes any buffering the sink does. Called by
    /// [`crate::EngineHandle::flush`] and on shutdown after all queued
    /// records have been processed. The default does nothing.
    fn flush(&self) {}
}

/// Collects events in memory until the consumer drains them.
///
/// `submit`, then [`crate::EngineHandle::flush`], then
/// [`MemorySink::drain`] returns exactly the events of the submitted
/// records.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<DriftEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns all buffered events, in emission order.
    #[must_use]
    pub fn drain(&self) -> Vec<DriftEvent> {
        std::mem::take(&mut *self.lock())
    }

    /// Returns a copy of the buffered events without draining them.
    #[must_use]
    pub fn events(&self) -> Vec<DriftEvent> {
        self.lock().clone()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<DriftEvent>> {
        // A panic while holding this lock leaves the buffer intact, so the
        // events are still meaningful: recover instead of propagating.
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &DriftEvent) {
        self.lock().push(*event);
    }
}

/// Serializes each event as one compact JSON object per line.
pub struct JsonLinesSink {
    writer: Mutex<Box<dyn Write + Send>>,
    write_errors: AtomicUsize,
}

impl JsonLinesSink {
    /// Wraps an arbitrary writer (a `Vec<u8>`, a socket, `io::stdout()`...).
    /// Unbuffered targets should be wrapped in an `io::BufWriter` first.
    pub fn new<W: Write + Send + 'static>(writer: W) -> Self {
        Self {
            writer: Mutex::new(Box::new(writer)),
            write_errors: AtomicUsize::new(0),
        }
    }

    /// Creates (truncating) a file at `path` and writes events to it through
    /// a buffer.
    ///
    /// # Errors
    ///
    /// Returns the `io::Error` from creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(io::BufWriter::new(file)))
    }

    /// Number of events that could not be written. `emit` cannot surface
    /// errors to the hot path, so failures are counted instead of panicking;
    /// consumers should check this after `flush`.
    #[must_use]
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn Write + Send>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EventSink for JsonLinesSink {
    fn emit(&self, event: &DriftEvent) {
        let Ok(json) = serde_json::to_string(event) else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut writer = self.lock();
        if writeln!(writer, "{json}").is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if self.lock().flush().is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink")
            .field("write_errors", &self.write_errors())
            .finish_non_exhaustive()
    }
}

/// Invokes a closure for every event — the hook for custom alerting buses.
pub struct CallbackSink {
    callback: Box<dyn Fn(&DriftEvent) + Send + Sync>,
}

impl CallbackSink {
    /// Wraps the given callback. It is invoked from engine worker threads,
    /// potentially from several at once, so it must be `Send + Sync`.
    pub fn new<F: Fn(&DriftEvent) + Send + Sync + 'static>(callback: F) -> Self {
        Self {
            callback: Box::new(callback),
        }
    }
}

impl EventSink for CallbackSink {
    fn emit(&self, event: &DriftEvent) {
        (self.callback)(event);
    }
}

impl std::fmt::Debug for CallbackSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallbackSink").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optwin_core::DriftStatus;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn event(stream: u64, seq: u64) -> DriftEvent {
        DriftEvent {
            stream,
            seq,
            status: DriftStatus::Drift,
        }
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&event(1, 5));
        sink.emit(&event(2, 9));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events().len(), 2);
        let drained = sink.drain();
        assert_eq!(drained, vec![event(1, 5), event(2, 9)]);
        assert!(sink.is_empty());
        sink.flush(); // no-op default
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_line() {
        // Shared buffer we can inspect after the sink is done with it.
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let sink = JsonLinesSink::new(buf.clone());
        sink.emit(&event(7, 100));
        sink.emit(&DriftEvent {
            stream: 7,
            seq: 101,
            status: DriftStatus::Warning,
        });
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: DriftEvent = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first, event(7, 100));
        assert!(lines[1].contains("\"Warning\""));
    }

    #[test]
    fn json_lines_sink_counts_write_failures() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("broken pipe"))
            }
        }
        let sink = JsonLinesSink::new(Broken);
        sink.emit(&event(1, 1));
        sink.flush();
        assert_eq!(sink.write_errors(), 2);
        assert!(format!("{sink:?}").contains("write_errors"));
    }

    #[test]
    fn callback_sink_invokes_closure() {
        let count = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&count);
        let sink = CallbackSink::new(move |e| {
            seen.fetch_add(e.seq, Ordering::Relaxed);
        });
        sink.emit(&event(3, 10));
        sink.emit(&event(3, 7));
        assert_eq!(count.load(Ordering::Relaxed), 17);
        assert!(format!("{sink:?}").contains("CallbackSink"));
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let sinks: Vec<Arc<dyn EventSink>> = vec![
            Arc::new(MemorySink::new()),
            Arc::new(CallbackSink::new(|_| {})),
        ];
        for sink in &sinks {
            sink.emit(&event(1, 1));
            sink.flush();
        }
    }
}
