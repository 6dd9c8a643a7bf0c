//! The sanctioned socket boundary.
//!
//! This module is the only place in the workspace (together with the
//! load-generator client in [`crate::client`]) allowed to touch
//! `std::net` — the `no-net` lumen-lint rule enforces the boundary, the
//! same way `no-fs` pins filesystem I/O to the checkpoint store's dir
//! backend. Everything above this layer speaks in byte buffers and typed
//! frames, so the daemon core stays a pure, deterministic state machine
//! that unit tests and the chaos soak can drive without a kernel in the
//! loop being anything but a loopback byte pipe.
//!
//! All sockets are non-blocking: the daemon's single-threaded event loop
//! must never park inside the kernel on one peer while another starves.

use crate::{DaemonError, Result};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// What one non-blocking read attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEvent {
    /// `n` bytes were read into the buffer.
    Data(usize),
    /// Nothing available right now (`WouldBlock`).
    Idle,
    /// The peer closed the connection (EOF or a hard error).
    Closed,
}

fn io_err(context: &str, e: &std::io::Error) -> DaemonError {
    DaemonError::Io(format!("{context}: {e}"))
}

/// A non-blocking TCP listener bound to an ephemeral loopback port.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
    port: u16,
}

impl Listener {
    /// Binds `127.0.0.1:0` (kernel-assigned port) and switches the
    /// listener non-blocking.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] when the bind or the non-blocking
    /// switch fails.
    pub fn bind_loopback() -> Result<Self> {
        let inner = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("bind", &e))?;
        inner
            .set_nonblocking(true)
            .map_err(|e| io_err("set_nonblocking", &e))?;
        let port = inner
            .local_addr()
            .map_err(|e| io_err("local_addr", &e))?
            .port();
        Ok(Listener { inner, port })
    }

    /// The kernel-assigned port clients connect to.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Accepts one pending connection, `None` when the backlog is empty.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] for accept failures other than an
    /// empty backlog.
    pub fn accept(&self) -> Result<Option<Conn>> {
        match self.inner.accept() {
            Ok((stream, _addr)) => Conn::from_stream(stream).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(io_err("accept", &e)),
        }
    }
}

/// One non-blocking TCP connection with an explicit outbound buffer.
///
/// Writes go through [`Conn::queue`] + [`Conn::flush`], so a peer that
/// stops reading backpressures into this buffer (visible, bounded by the
/// daemon's accounting) instead of blocking the event loop.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    outbound: Vec<u8>,
}

impl Conn {
    /// Wraps an already-connected stream (the accept path here, the
    /// connect path in [`crate::client`]).
    pub(crate) fn from_stream(stream: TcpStream) -> Result<Self> {
        stream
            .set_nonblocking(true)
            .map_err(|e| io_err("set_nonblocking", &e))?;
        // Frames are far smaller than an MTU; Nagle would batch them
        // across turns and skew the loopback latency measurements.
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("nodelay", &e))?;
        Ok(Conn {
            stream,
            outbound: Vec::new(),
        })
    }

    /// One non-blocking read into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] only for unexpected I/O failures;
    /// `WouldBlock` is [`ReadEvent::Idle`] and reset-by-peer is
    /// [`ReadEvent::Closed`].
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> Result<ReadEvent> {
        match self.stream.read(buf) {
            Ok(0) => Ok(ReadEvent::Closed),
            Ok(n) => Ok(ReadEvent::Data(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(ReadEvent::Idle),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(ReadEvent::Idle),
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                Ok(ReadEvent::Closed)
            }
            Err(e) => Err(io_err("read", &e)),
        }
    }

    /// Queues bytes for transmission; nothing touches the socket yet.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.outbound.extend_from_slice(bytes);
    }

    /// Pushes queued bytes into the socket; `true` once the queue is
    /// empty. A peer that reads too slowly leaves bytes queued — that is
    /// backpressure, not an error.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] for hard write failures (a reset peer
    /// reports `Closed`-like errors via the next read instead).
    pub fn flush(&mut self) -> Result<bool> {
        while !self.outbound.is_empty() {
            match self.stream.write(&self.outbound) {
                Ok(0) => break,
                Ok(n) => {
                    self.outbound.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::BrokenPipe =>
                {
                    // The peer is gone; drop the bytes, the read path will
                    // report Closed and reap the connection.
                    self.outbound.clear();
                    break;
                }
                Err(e) => return Err(io_err("write", &e)),
            }
        }
        Ok(self.outbound.is_empty())
    }
}
