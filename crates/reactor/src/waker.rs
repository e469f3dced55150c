//! Self-pipe waker: lets executor threads interrupt a blocked `poll(2)`.

use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// The reactor-side end: registered in the poll set, drained on wake.
pub(crate) struct WakerReader {
    rx: UnixStream,
}

/// The clonable executor-side end: one byte written wakes the poll loop.
/// A full pipe means a wake is already pending, so `WouldBlock` is success.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupt the reactor's `poll` (idempotent while a wake is pending).
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

pub(crate) fn waker_pair() -> std::io::Result<(WakerReader, Waker)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((WakerReader { rx }, Waker { tx: Arc::new(tx) }))
}

impl WakerReader {
    pub(crate) fn fd(&self) -> i32 {
        self.rx.as_raw_fd()
    }

    /// Swallow every pending wake byte.
    pub(crate) fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollshim::{poll, PollFd, POLLIN};

    #[test]
    fn wake_makes_the_reader_pollable_and_drain_clears_it() {
        let (mut rd, wk) = waker_pair().expect("pair");
        let mut fds = [PollFd::new(rd.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).expect("poll"), 0);
        wk.wake();
        wk.wake();
        assert_eq!(poll(&mut fds, 1000).expect("poll"), 1);
        rd.drain();
        let mut fds = [PollFd::new(rd.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).expect("poll"), 0);
    }
}
