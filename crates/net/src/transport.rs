//! Blocking message channels.
//!
//! [`Channel`] is the single abstraction the federated runtime talks to:
//! it moves opaque message payloads. Implementations:
//!
//! * [`TcpChannel`] — real sockets with length-prefixed framing (the
//!   production path; workers are standing TCP servers),
//! * [`MemChannel`] — crossbeam-backed in-process pair for deterministic
//!   tests,
//! * [`EncryptedChannel`] — ChaCha20 seal/open around any inner channel,
//! * [`ShapedChannel`] — WAN simulation around any inner channel,
//! * [`InstrumentedChannel`] — byte/message/time accounting around any
//!   inner channel.
//!
//! Wrappers compose: the Figure 6 "WAN + SSL" configuration is
//! `Instrumented(Shaped(Encrypted(Tcp)))`.
//!
//! Every channel can additionally [`Channel::split`] into independently
//! owned send and receive halves, which is what lets a worker decode
//! ahead on one thread while answering out of order from others, and
//! [`PipelinedChannel`] keeps a sliding window of correlation-tagged
//! requests in flight over any channel (see `framing` for the tag
//! layout).

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::crypto::{ChannelKey, CipherState};
use crate::framing::{read_frame, tag_request, untag_reply, write_frame};
use crate::sim::NetProfile;
use crate::stats::NetStats;

/// A blocking, message-oriented, bidirectional channel.
pub trait Channel: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;
    /// Receives one message, blocking until available.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// Separates the channel into independently-owned send and receive
    /// halves so one thread can keep receiving while others send.
    /// Implementations that cannot split return themselves whole; callers
    /// must handle both arms of [`SplitResult`].
    fn split(self: Box<Self>) -> SplitResult;
}

/// The sending half of a split [`Channel`].
pub trait SendHalf: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;
}

/// The receiving half of a split [`Channel`].
pub trait RecvHalf: Send {
    /// Receives one message, blocking until available.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

/// Outcome of [`Channel::split`].
pub enum SplitResult {
    /// The channel separated into independently-owned halves.
    Split(Box<dyn SendHalf>, Box<dyn RecvHalf>),
    /// The channel cannot be split and is returned whole.
    Whole(Box<dyn Channel>),
}

/// Socket-level timeout configuration for [`TcpChannel`]s, plus the RPC
/// pipelining window threaded through to the coordinator.
///
/// All timeouts default to `None` (block forever), preserving the paper's
/// standing-worker assumption; the fault-tolerance layer passes finite
/// values so a dead peer surfaces as [`io::ErrorKind::TimedOut`] — which
/// the retry taxonomy classifies as transient — instead of hanging the
/// coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read (per syscall, not per message).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
    /// Sliding window of in-flight pipelined requests per connection.
    /// `1` (the default) is the legacy lock-step protocol — one request
    /// on the wire at a time, byte-for-byte compatible with peers that
    /// predate pipelining. Values above 1 let the coordinator stream
    /// correlation-tagged requests ahead of their replies.
    pub rpc_window: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            rpc_window: 1,
        }
    }
}

impl ChannelConfig {
    /// Config with every timeout set to `d`.
    pub fn all(d: Duration) -> Self {
        Self {
            connect_timeout: Some(d),
            read_timeout: Some(d),
            write_timeout: Some(d),
            ..Self::default()
        }
    }

    /// Config with no timeouts (block forever).
    pub fn blocking() -> Self {
        Self::default()
    }

    /// Returns the config with the pipelining window set to `n`
    /// (clamped to at least 1).
    pub fn with_rpc_window(mut self, n: usize) -> Self {
        self.rpc_window = n.max(1);
        self
    }
}

/// TCP channel with length-prefixed framing.
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Maps the platform's read/write-timeout error (`WouldBlock` on Unix,
/// `TimedOut` on Windows) to the single `TimedOut` kind the fault layer
/// keys on.
fn normalize_timeout(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

impl TcpChannel {
    /// Connects to a listening peer with no timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, &ChannelConfig::default())
    }

    /// Connects to a listening peer under `config`.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ChannelConfig) -> io::Result<Self> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(t) => {
                // connect_timeout needs resolved addresses; try each.
                let mut last = None;
                let mut stream = None;
                for a in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, t) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to no endpoints",
                            )
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        Self::from_stream_with(stream, config)
    }

    /// Wraps an accepted stream with no timeouts.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        Self::from_stream_with(stream, &ChannelConfig::default())
    }

    /// Wraps an accepted stream, applying `config`'s read/write timeouts.
    pub fn from_stream_with(stream: TcpStream, config: &ChannelConfig) -> io::Result<Self> {
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Changes the read timeout on the live socket.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    /// Changes the write timeout on the live socket.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.writer.get_ref().set_write_timeout(t)
    }
}

impl Channel for TcpChannel {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload).map_err(normalize_timeout)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.reader).map_err(normalize_timeout)
    }

    fn split(self: Box<Self>) -> SplitResult {
        // The reader/writer pair already sit on independent clones of the
        // socket, so the halves separate cleanly.
        SplitResult::Split(
            Box::new(TcpSendHalf {
                writer: self.writer,
            }),
            Box::new(TcpRecvHalf {
                reader: self.reader,
            }),
        )
    }
}

struct TcpSendHalf {
    writer: BufWriter<TcpStream>,
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload).map_err(normalize_timeout)
    }
}

struct TcpRecvHalf {
    reader: BufReader<TcpStream>,
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.reader).map_err(normalize_timeout)
    }
}

/// A TCP server handle: binds a port and accepts [`TcpChannel`]s.
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Blocks until a client connects.
    pub fn accept(&self) -> io::Result<TcpChannel> {
        self.accept_with(&ChannelConfig::default())
    }

    /// Blocks until a client connects; the accepted channel gets
    /// `config`'s read/write timeouts.
    pub fn accept_with(&self, config: &ChannelConfig) -> io::Result<TcpChannel> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        TcpChannel::from_stream_with(stream, config)
    }
}

/// In-memory channel endpoint backed by crossbeam queues.
pub struct MemChannel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected in-memory channel pair.
pub fn mem_pair() -> (MemChannel, MemChannel) {
    let (atx, brx) = unbounded();
    let (btx, arx) = unbounded();
    (
        MemChannel { tx: atx, rx: arx },
        MemChannel { tx: btx, rx: brx },
    )
}

fn mem_send(tx: &Sender<Vec<u8>>, payload: &[u8]) -> io::Result<()> {
    tx.send(payload.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
}

fn mem_recv(rx: &Receiver<Vec<u8>>) -> io::Result<Vec<u8>> {
    rx.recv()
        .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer dropped"))
}

impl Channel for MemChannel {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        mem_send(&self.tx, payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        mem_recv(&self.rx)
    }

    fn split(self: Box<Self>) -> SplitResult {
        SplitResult::Split(
            Box::new(MemSendHalf { tx: self.tx }),
            Box::new(MemRecvHalf { rx: self.rx }),
        )
    }
}

struct MemSendHalf {
    tx: Sender<Vec<u8>>,
}

impl SendHalf for MemSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        mem_send(&self.tx, payload)
    }
}

struct MemRecvHalf {
    rx: Receiver<Vec<u8>>,
}

impl RecvHalf for MemRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        mem_recv(&self.rx)
    }
}

/// Encrypting wrapper (ChaCha20 + integrity tag) around any channel.
///
/// Each direction keeps its own [`CipherState`] with an independent
/// monotone nonce counter, so send and receive never have to alternate:
/// pipelined traffic (many sends before any receive, replies out of
/// request order) stays decryptable as long as each direction's frames
/// arrive in the order they were sealed — which splitting into one send
/// half and one receive half guarantees by construction.
pub struct EncryptedChannel<C: Channel> {
    inner: C,
    tx: CipherState,
    rx: CipherState,
}

impl<C: Channel + 'static> EncryptedChannel<C> {
    /// Wraps `inner` with a pre-shared key. `is_initiator` selects the
    /// nonce direction so both endpoints derive disjoint keystreams.
    pub fn new(inner: C, key: ChannelKey, is_initiator: bool) -> Self {
        let (tx_dir, rx_dir) = if is_initiator { (0, 1) } else { (1, 0) };
        Self {
            inner,
            tx: CipherState::new(key, tx_dir),
            rx: CipherState::new(key, rx_dir),
        }
    }
}

fn enc_send(inner: &mut impl SendLike, tx: &mut CipherState, payload: &[u8]) -> io::Result<()> {
    let sealed = tx.seal(payload);
    inner.send_msg(&sealed)
}

fn enc_recv(inner: &mut impl RecvLike, rx: &mut CipherState) -> io::Result<Vec<u8>> {
    let sealed = inner.recv_msg()?;
    rx.open(&sealed)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "message authentication failed"))
}

/// Internal unification of `Channel`/`SendHalf` senders so the encrypted
/// and instrumented wrappers share one code path for whole channels and
/// split halves.
trait SendLike {
    fn send_msg(&mut self, payload: &[u8]) -> io::Result<()>;
}

trait RecvLike {
    fn recv_msg(&mut self) -> io::Result<Vec<u8>>;
}

impl<C: Channel + ?Sized> SendLike for C {
    fn send_msg(&mut self, payload: &[u8]) -> io::Result<()> {
        self.send(payload)
    }
}

impl<C: Channel + ?Sized> RecvLike for C {
    fn recv_msg(&mut self) -> io::Result<Vec<u8>> {
        self.recv()
    }
}

impl SendLike for Box<dyn SendHalf> {
    fn send_msg(&mut self, payload: &[u8]) -> io::Result<()> {
        (**self).send(payload)
    }
}

impl RecvLike for Box<dyn RecvHalf> {
    fn recv_msg(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }
}

impl<C: Channel + 'static> Channel for EncryptedChannel<C> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        enc_send(&mut self.inner, &mut self.tx, payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        enc_recv(&mut self.inner, &mut self.rx)
    }

    fn split(self: Box<Self>) -> SplitResult {
        let Self { inner, tx, rx } = *self;
        match Box::new(inner).split() {
            SplitResult::Split(s, r) => SplitResult::Split(
                Box::new(EncryptedSendHalf { inner: s, tx }),
                Box::new(EncryptedRecvHalf { inner: r, rx }),
            ),
            SplitResult::Whole(w) => {
                SplitResult::Whole(Box::new(EncryptedChannel { inner: w, tx, rx }))
            }
        }
    }
}

struct EncryptedSendHalf {
    inner: Box<dyn SendHalf>,
    tx: CipherState,
}

impl SendHalf for EncryptedSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        enc_send(&mut self.inner, &mut self.tx, payload)
    }
}

struct EncryptedRecvHalf {
    inner: Box<dyn RecvHalf>,
    rx: CipherState,
}

impl RecvHalf for EncryptedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        enc_recv(&mut self.inner, &mut self.rx)
    }
}

/// WAN-shaping wrapper: delivers each inbound message no earlier than its
/// simulated arrival over the profiled link.
///
/// The link model charges one-way propagation latency plus bandwidth
/// transfer time per message, with an explicit *arrival* model: messages
/// that are concurrently in flight overlap their latencies (only their
/// transfer times serialize on the link), while a lock-step exchange pays
/// the full latency every round trip. This is what makes pipelining
/// measurable — a window of `w` outstanding requests sees ~`ceil(n/w)`
/// latencies for an `n`-request batch instead of `n`.
///
/// To observe true arrival times (a message that arrives while the
/// consumer is still sleeping out an earlier delivery must not be charged
/// a fresh latency), the wrapper splits its inner channel and moves the
/// receive half onto a pump thread that timestamps each message as it
/// lands. Channels that refuse to split fall back to a synchronous model
/// that is exact for lock-step traffic and merely pessimistic for
/// pipelined traffic.
///
/// Only the inbound direction is shaped; `send` passes straight through.
/// Around a coordinator's channel (as `WorkerEndpoint` builds it), replies
/// pay latency plus transfer time but requests reach the worker
/// unshaped: a lock-step round trip costs one one-way latency (half the
/// profile's RTT), and uploads take no simulated link time.
pub struct ShapedChannel {
    profile: NetProfile,
    mode: ShapedMode,
    /// Simulated instant through which the link is busy transferring
    /// already-accepted messages.
    link_free: Option<Instant>,
    /// Delivered-message counter keying the profile's deterministic
    /// per-message jitter stream.
    seq: u64,
}

enum ShapedMode {
    /// Inner channel split; the receive half lives on a pump thread that
    /// timestamps arrivals.
    Pumped {
        tx: Box<dyn SendHalf>,
        rx: Receiver<(Instant, io::Result<Vec<u8>>)>,
    },
    /// Inner channel would not split: shape synchronously on receive.
    Whole(Box<dyn Channel>),
}

impl ShapedChannel {
    /// Wraps `inner` with a link profile.
    pub fn new(inner: impl Channel + 'static, profile: NetProfile) -> Self {
        let boxed: Box<dyn Channel> = Box::new(inner);
        // An unshaped profile needs no arrival timestamps; skip the pump
        // thread and pass straight through.
        let mode = if profile.is_unshaped() {
            ShapedMode::Whole(boxed)
        } else {
            match boxed.split() {
                SplitResult::Split(tx, mut recv_half) => {
                    let (pump_tx, rx) = unbounded();
                    std::thread::Builder::new()
                        .name("exdra-shaped-pump".into())
                        .spawn(move || loop {
                            let res = recv_half.recv();
                            let failed = res.is_err();
                            if pump_tx.send((Instant::now(), res)).is_err() || failed {
                                break;
                            }
                        })
                        .expect("spawn shaped-channel pump thread");
                    ShapedMode::Pumped { tx, rx }
                }
                SplitResult::Whole(w) => ShapedMode::Whole(w),
            }
        };
        Self {
            profile,
            mode,
            link_free: None,
            seq: 0,
        }
    }

    /// The wrapped link profile.
    pub fn profile(&self) -> NetProfile {
        self.profile
    }

    /// Sleeps until a message that physically arrived at `arrival` with
    /// `bytes` payload would be delivered over the simulated link, and
    /// advances the link-busy horizon.
    fn delay_delivery(&mut self, arrival: Instant, bytes: usize) {
        if self.profile.is_unshaped() {
            return;
        }
        let transfer = self.profile.transfer_time(bytes);
        // The link starts carrying this message when it is free again;
        // propagation latency overlaps with other in-flight messages.
        let start = match self.link_free {
            Some(t) if t > arrival => t,
            _ => arrival,
        };
        self.link_free = Some(start + transfer);
        let latency = self.profile.latency_jittered(self.seq);
        self.seq += 1;
        let deliver = start + transfer + latency;
        let now = Instant::now();
        if deliver > now {
            std::thread::sleep(deliver - now);
        }
    }
}

impl Channel for ShapedChannel {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        match &mut self.mode {
            ShapedMode::Pumped { tx, .. } => tx.send(payload),
            ShapedMode::Whole(w) => w.send(payload),
        }
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let (arrival, payload) = match &mut self.mode {
            ShapedMode::Pumped { rx, .. } => {
                let (arrival, res) = rx.recv().map_err(|_| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "shaped pump stopped")
                })?;
                (arrival, res?)
            }
            // Without arrival timestamps, the best estimate is "now":
            // exact for lock-step exchanges, pessimistic for pipelining.
            ShapedMode::Whole(w) => {
                let p = w.recv()?;
                (Instant::now(), p)
            }
        };
        let len = payload.len();
        self.delay_delivery(arrival, len);
        Ok(payload)
    }

    fn split(self: Box<Self>) -> SplitResult {
        let Self {
            profile,
            mode,
            link_free,
            seq,
        } = *self;
        match mode {
            ShapedMode::Pumped { tx, rx } => SplitResult::Split(
                Box::new(ShapedSendHalf { tx }),
                Box::new(ShapedRecvHalf {
                    profile,
                    rx,
                    link_free,
                    seq,
                }),
            ),
            ShapedMode::Whole(w) => SplitResult::Whole(Box::new(ShapedChannel {
                profile,
                mode: ShapedMode::Whole(w),
                link_free,
                seq,
            })),
        }
    }
}

struct ShapedSendHalf {
    tx: Box<dyn SendHalf>,
}

impl SendHalf for ShapedSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx.send(payload)
    }
}

struct ShapedRecvHalf {
    profile: NetProfile,
    rx: Receiver<(Instant, io::Result<Vec<u8>>)>,
    link_free: Option<Instant>,
    seq: u64,
}

impl RecvHalf for ShapedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let (arrival, res) = self
            .rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "shaped pump stopped"))?;
        let payload = res?;
        if !self.profile.is_unshaped() {
            let transfer = self.profile.transfer_time(payload.len());
            let start = match self.link_free {
                Some(t) if t > arrival => t,
                _ => arrival,
            };
            self.link_free = Some(start + transfer);
            let latency = self.profile.latency_jittered(self.seq);
            self.seq += 1;
            let deliver = start + transfer + latency;
            let now = Instant::now();
            if deliver > now {
                std::thread::sleep(deliver - now);
            }
        }
        Ok(payload)
    }
}

/// Accounting wrapper recording bytes, messages, and blocked time.
pub struct InstrumentedChannel<C: Channel> {
    inner: C,
    stats: Arc<NetStats>,
}

impl<C: Channel + 'static> InstrumentedChannel<C> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: C, stats: Arc<NetStats>) -> Self {
        Self { inner, stats }
    }
}

fn inst_send(inner: &mut impl SendLike, stats: &NetStats, payload: &[u8]) -> io::Result<()> {
    let t0 = Instant::now();
    let r = inner.send_msg(payload);
    stats.record_send(payload.len() as u64, t0.elapsed().as_nanos() as u64);
    r
}

fn inst_recv(inner: &mut impl RecvLike, stats: &NetStats) -> io::Result<Vec<u8>> {
    let t0 = Instant::now();
    let r = inner.recv_msg();
    if let Ok(p) = &r {
        stats.record_recv(p.len() as u64, t0.elapsed().as_nanos() as u64);
    }
    r
}

impl<C: Channel + 'static> Channel for InstrumentedChannel<C> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        inst_send(&mut self.inner, &self.stats, payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        inst_recv(&mut self.inner, &self.stats)
    }

    fn split(self: Box<Self>) -> SplitResult {
        let Self { inner, stats } = *self;
        match Box::new(inner).split() {
            SplitResult::Split(s, r) => SplitResult::Split(
                Box::new(InstrumentedSendHalf {
                    inner: s,
                    stats: Arc::clone(&stats),
                }),
                Box::new(InstrumentedRecvHalf { inner: r, stats }),
            ),
            SplitResult::Whole(w) => {
                SplitResult::Whole(Box::new(InstrumentedChannel { inner: w, stats }))
            }
        }
    }
}

struct InstrumentedSendHalf {
    inner: Box<dyn SendHalf>,
    stats: Arc<NetStats>,
}

impl SendHalf for InstrumentedSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        inst_send(&mut self.inner, &self.stats, payload)
    }
}

struct InstrumentedRecvHalf {
    inner: Box<dyn RecvHalf>,
    stats: Arc<NetStats>,
}

impl RecvHalf for InstrumentedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        inst_recv(&mut self.inner, &self.stats)
    }
}

impl Channel for Box<dyn Channel> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        (**self).send(payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }

    fn split(self: Box<Self>) -> SplitResult {
        (*self).split()
    }
}

/// Default sliding window for pipelined RPC: up to 8 requests in flight
/// per connection.
pub const DEFAULT_WINDOW: usize = 8;

/// Sliding-window multiplexer over any [`Channel`].
///
/// Each request is framed with a fresh correlation id
/// (see `framing::tag_request`); up to `window` requests ride the wire
/// before the first reply is awaited. Replies may come back in any
/// order — a reply-dispatch map parks early arrivals until their caller
/// asks for them, and replies whose correlation id is unknown (stale
/// duplicates from a lossy link) are discarded.
pub struct PipelinedChannel<C: Channel> {
    inner: C,
    window: usize,
    next_corr: u64,
    /// Correlation ids sent and not yet answered.
    pending: HashSet<u64>,
    /// Replies that arrived before their caller claimed them.
    ready: HashMap<u64, Vec<u8>>,
}

impl<C: Channel> PipelinedChannel<C> {
    /// Wraps `inner` with the [`DEFAULT_WINDOW`].
    pub fn new(inner: C) -> Self {
        Self::with_window(inner, DEFAULT_WINDOW)
    }

    /// Wraps `inner` with a window of `window` in-flight requests
    /// (clamped to at least 1).
    pub fn with_window(inner: C, window: usize) -> Self {
        Self {
            inner,
            window: window.max(1),
            next_corr: 1,
            pending: HashSet::new(),
            ready: HashMap::new(),
        }
    }

    /// The configured window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests currently awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Sends one correlation-tagged request, returning its correlation
    /// id. Blocks (receiving replies) while the window is full.
    pub fn send_request(&mut self, body: &[u8]) -> io::Result<u64> {
        while self.pending.len() >= self.window {
            self.pump_one()?;
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        self.inner.send(&tag_request(corr, body))?;
        self.pending.insert(corr);
        Ok(corr)
    }

    /// Receives one reply frame and routes it: pending ids move to the
    /// ready map, unknown/duplicate ids are dropped.
    fn pump_one(&mut self) -> io::Result<()> {
        let payload = self.inner.recv()?;
        let (corr, body) = untag_reply(&payload)?;
        if self.pending.remove(&corr) {
            self.ready.insert(corr, body.to_vec());
        }
        Ok(())
    }

    /// Blocks until the reply for `corr` arrives and returns its body.
    /// Replies to other in-flight requests received along the way are
    /// parked for their own callers.
    pub fn recv_for(&mut self, corr: u64) -> io::Result<Vec<u8>> {
        loop {
            if let Some(body) = self.ready.remove(&corr) {
                return Ok(body);
            }
            if !self.pending.contains(&corr) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("correlation id {corr} is not in flight"),
                ));
            }
            self.pump_one()?;
        }
    }

    /// Blocks until any reply is available and returns `(corr, body)`.
    pub fn recv_any(&mut self) -> io::Result<(u64, Vec<u8>)> {
        loop {
            if let Some(&corr) = self.ready.keys().next() {
                let body = self.ready.remove(&corr).expect("key just seen");
                return Ok((corr, body));
            }
            if self.pending.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "no requests in flight",
                ));
            }
            self.pump_one()?;
        }
    }

    /// Waits out every in-flight request and returns all unclaimed
    /// replies sorted by correlation id.
    pub fn drain(&mut self) -> io::Result<Vec<(u64, Vec<u8>)>> {
        while !self.pending.is_empty() {
            self.pump_one()?;
        }
        let mut out: Vec<(u64, Vec<u8>)> = self.ready.drain().collect();
        out.sort_by_key(|(c, _)| *c);
        Ok(out)
    }

    /// Unwraps the inner channel, discarding any pipelining state.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::untag_request;

    #[test]
    fn mem_pair_duplex() {
        let (mut a, mut b) = mem_pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn mem_channel_detects_dropped_peer() {
        let (mut a, b) = mem_pair();
        drop(b);
        assert!(a.send(b"x").is_err());
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            let msg = ch.recv().unwrap();
            ch.send(&msg).unwrap(); // echo
        });
        let mut client = TcpChannel::connect(addr).unwrap();
        let payload = vec![42u8; 100_000];
        client.send(&payload).unwrap();
        assert_eq!(client.recv().unwrap(), payload);
        handle.join().unwrap();
    }

    #[test]
    fn read_timeout_surfaces_as_timed_out() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let cfg = ChannelConfig {
            read_timeout: Some(std::time::Duration::from_millis(50)),
            ..ChannelConfig::default()
        };
        let handle = std::thread::spawn(move || {
            // Accept and hold the connection open without ever replying.
            let ch = server.accept().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            drop(ch);
        });
        let mut client = TcpChannel::connect_with(addr, &cfg).unwrap();
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        handle.join().unwrap();
    }

    #[test]
    fn connect_timeout_path_connects_and_rejects() {
        let cfg = ChannelConfig {
            connect_timeout: Some(std::time::Duration::from_millis(500)),
            ..ChannelConfig::default()
        };
        // Positive path: the resolved-address loop connects to a live peer.
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let _ch = server.accept().unwrap();
        });
        TcpChannel::connect_with(addr, &cfg).unwrap();
        handle.join().unwrap();
        // Negative path: a port with no listener errors promptly.
        let dead = TcpServer::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let t0 = Instant::now();
        assert!(TcpChannel::connect_with(dead_addr, &cfg).is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn timeouts_adjustable_on_live_channel() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            let msg = ch.recv().unwrap();
            ch.send(&msg).unwrap();
        });
        let client = TcpChannel::connect(addr).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        client.set_write_timeout(None).unwrap();
        let mut client = client;
        client.send(b"echo").unwrap();
        assert_eq!(client.recv().unwrap(), b"echo");
        handle.join().unwrap();
    }

    #[test]
    fn channel_config_defaults_to_lockstep_window() {
        assert_eq!(ChannelConfig::default().rpc_window, 1);
        assert_eq!(
            ChannelConfig::all(Duration::from_secs(1)).rpc_window,
            1,
            "timeout presets keep the legacy window"
        );
        assert_eq!(ChannelConfig::default().with_rpc_window(8).rpc_window, 8);
        assert_eq!(
            ChannelConfig::default().with_rpc_window(0).rpc_window,
            1,
            "window clamps to at least one"
        );
    }

    #[test]
    fn encrypted_channel_roundtrip() {
        let (a, b) = mem_pair();
        let key = ChannelKey::from_passphrase("secret");
        let mut ea = EncryptedChannel::new(a, key, true);
        let mut eb = EncryptedChannel::new(b, key, false);
        ea.send(b"classified").unwrap();
        assert_eq!(eb.recv().unwrap(), b"classified");
        eb.send(b"ack").unwrap();
        assert_eq!(ea.recv().unwrap(), b"ack");
    }

    #[test]
    fn encrypted_channel_payload_not_plaintext() {
        let (a, mut b) = mem_pair();
        let key = ChannelKey::from_passphrase("secret");
        let mut ea = EncryptedChannel::new(a, key, true);
        ea.send(b"visible-secret-data").unwrap();
        let raw = b.recv().unwrap();
        assert!(!raw.windows(b"visible".len()).any(|w| w == b"visible"));
    }

    #[test]
    fn encrypted_wrong_key_fails_auth() {
        let (a, b) = mem_pair();
        let mut ea = EncryptedChannel::new(a, ChannelKey::from_passphrase("k1"), true);
        let mut eb = EncryptedChannel::new(b, ChannelKey::from_passphrase("k2"), false);
        ea.send(b"msg").unwrap();
        assert!(eb.recv().is_err());
    }

    #[test]
    fn encrypted_tolerates_burst_sends_without_alternation() {
        // ChaCha20 nonce handling must not assume send/recv lock-step:
        // many sends before any receive, interleaved both ways.
        let (a, b) = mem_pair();
        let key = ChannelKey::from_passphrase("burst");
        let mut ea = EncryptedChannel::new(a, key, true);
        let mut eb = EncryptedChannel::new(b, key, false);
        for i in 0..10u8 {
            ea.send(&[i; 17]).unwrap();
        }
        eb.send(b"early-reply").unwrap();
        for i in 0..10u8 {
            assert_eq!(eb.recv().unwrap(), vec![i; 17]);
        }
        assert_eq!(ea.recv().unwrap(), b"early-reply");
    }

    #[test]
    fn shaped_channel_delays_delivery() {
        // Shaping now charges the arrival path: the receiver waits out
        // the one-way latency; sends are free.
        let (a, b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(40.0, 1000.0));
        let mut b = b;
        let t0 = Instant::now();
        sa.send(b"x").unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(15),
            "send path is unshaped"
        );
        assert_eq!(b.recv().unwrap(), b"x");
        b.send(b"reply").unwrap();
        let t1 = Instant::now();
        assert_eq!(sa.recv().unwrap(), b"reply");
        assert!(
            t1.elapsed() >= Duration::from_millis(15),
            "recv pays one-way latency, got {:?}",
            t1.elapsed()
        );
    }

    #[test]
    fn shaped_channel_overlaps_latency_of_concurrent_messages() {
        // Messages already in flight share the link: n queued replies
        // cost ~1 latency, not n. This is the property pipelining rides.
        let (a, mut b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(80.0, f64::INFINITY));
        sa.send(b"warmup").unwrap();
        b.recv().unwrap();
        for i in 0..4u8 {
            b.send(&[i]).unwrap();
        }
        // Let all four land in the pump before the first recv.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        for i in 0..4u8 {
            assert_eq!(sa.recv().unwrap(), vec![i]);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(3 * 40),
            "4 concurrent messages must overlap latency, took {elapsed:?}"
        );
    }

    #[test]
    fn shaped_channel_serializes_lockstep_exchanges() {
        // A strict request/reply loop pays the latency every time.
        let (a, b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(30.0, f64::INFINITY));
        let handle = std::thread::spawn(move || {
            let mut b = b;
            while let Ok(m) = b.recv() {
                if b.send(&m).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for _ in 0..3 {
            sa.send(b"rt").unwrap();
            sa.recv().unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(3 * 15),
            "3 lock-step round trips pay 3 latencies, took {elapsed:?}"
        );
        drop(sa);
        handle.join().unwrap();
    }

    #[test]
    fn instrumented_channel_counts() {
        let stats = NetStats::shared();
        let (a, b) = mem_pair();
        let mut ia = InstrumentedChannel::new(a, Arc::clone(&stats));
        let mut ib = InstrumentedChannel::new(b, Arc::clone(&stats));
        ia.send(&[0u8; 500]).unwrap();
        ib.recv().unwrap();
        assert_eq!(stats.bytes_sent(), 500);
        assert_eq!(stats.bytes_received(), 500);
        assert_eq!(stats.messages_sent(), 1);
    }

    #[test]
    fn full_stack_composition() {
        // Instrumented(Shaped(Encrypted(Mem))) both ways.
        let stats = NetStats::shared();
        let key = ChannelKey::from_passphrase("stack");
        let (a, b) = mem_pair();
        let mut client = InstrumentedChannel::new(
            ShapedChannel::new(
                EncryptedChannel::new(a, key, true),
                NetProfile::custom(2.0, 100.0),
            ),
            Arc::clone(&stats),
        );
        let mut server = EncryptedChannel::new(b, key, false);
        client.send(b"end-to-end").unwrap();
        assert_eq!(server.recv().unwrap(), b"end-to-end");
        server.send(b"roger").unwrap();
        assert_eq!(client.recv().unwrap(), b"roger");
        assert_eq!(stats.messages_sent(), 1);
        assert_eq!(stats.messages_received(), 1);
    }

    #[test]
    fn mem_channel_splits_into_working_halves() {
        let (a, mut b) = mem_pair();
        let (mut s, mut r) = match (Box::new(a) as Box<dyn Channel>).split() {
            SplitResult::Split(s, r) => (s, r),
            SplitResult::Whole(_) => panic!("mem channel must split"),
        };
        s.send(b"to-peer").unwrap();
        assert_eq!(b.recv().unwrap(), b"to-peer");
        b.send(b"from-peer").unwrap();
        assert_eq!(r.recv().unwrap(), b"from-peer");
    }

    #[test]
    fn tcp_channel_splits_and_halves_work_concurrently() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            for _ in 0..3 {
                let m = ch.recv().unwrap();
                ch.send(&m).unwrap();
            }
        });
        let client = Box::new(TcpChannel::connect(addr).unwrap());
        let (mut s, mut r) = match (client as Box<dyn Channel>).split() {
            SplitResult::Split(s, r) => (s, r),
            SplitResult::Whole(_) => panic!("tcp channel must split"),
        };
        // Send from this thread while a second thread receives.
        let recv_thread = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(r.recv().unwrap());
            }
            got
        });
        for i in 0..3u8 {
            s.send(&[i; 5]).unwrap();
        }
        let got = recv_thread.join().unwrap();
        assert_eq!(got, vec![vec![0u8; 5], vec![1u8; 5], vec![2u8; 5]]);
        handle.join().unwrap();
    }

    #[test]
    fn encrypted_and_instrumented_stacks_split() {
        let stats = NetStats::shared();
        let key = ChannelKey::from_passphrase("split");
        let (a, b) = mem_pair();
        let stack = InstrumentedChannel::new(EncryptedChannel::new(a, key, true), stats.clone());
        let (mut s, mut r) = match (Box::new(stack) as Box<dyn Channel>).split() {
            SplitResult::Split(s, r) => (s, r),
            SplitResult::Whole(_) => panic!("wrapper stack must split"),
        };
        let mut peer = EncryptedChannel::new(b, key, false);
        s.send(b"down").unwrap();
        assert_eq!(peer.recv().unwrap(), b"down");
        peer.send(b"up").unwrap();
        assert_eq!(r.recv().unwrap(), b"up");
        assert_eq!(stats.messages_sent(), 1);
        assert_eq!(stats.messages_received(), 1);
    }

    /// Echo peer that answers each tagged request with a tagged reply
    /// whose body proves which request it belongs to.
    fn pipelined_echo_peer(
        mut ch: MemChannel,
        reorder_every: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut held: Vec<(u64, Vec<u8>)> = Vec::new();
            while let Ok(frame) = ch.recv() {
                let (corr, body) = match untag_request(&frame) {
                    Some(x) => (x.0, x.1.to_vec()),
                    None => continue,
                };
                held.push((corr, body));
                if held.len() >= reorder_every {
                    // Reply in reverse order to force out-of-order
                    // correlation matching on the client.
                    for (c, b) in held.drain(..).rev() {
                        let mut reply = b"echo:".to_vec();
                        reply.extend_from_slice(&b);
                        if ch.send(&crate::framing::tag_reply(c, &reply)).is_err() {
                            return;
                        }
                    }
                }
            }
        })
    }

    #[test]
    fn pipelined_channel_routes_out_of_order_replies() {
        let (a, b) = mem_pair();
        let peer = pipelined_echo_peer(b, 4);
        let mut pc = PipelinedChannel::with_window(a, 4);
        let corrs: Vec<u64> = (0..8)
            .map(|i| pc.send_request(format!("req{i}").as_bytes()).unwrap())
            .collect();
        assert!(pc.in_flight() <= 4, "window bound respected");
        for (i, corr) in corrs.iter().enumerate() {
            let body = pc.recv_for(*corr).unwrap();
            assert_eq!(body, format!("echo:req{i}").as_bytes());
        }
        assert_eq!(pc.in_flight(), 0);
        drop(pc);
        peer.join().unwrap();
    }

    #[test]
    fn pipelined_window_blocks_at_capacity() {
        let (a, b) = mem_pair();
        let peer = pipelined_echo_peer(b, 1);
        let mut pc = PipelinedChannel::with_window(a, 2);
        for i in 0..6 {
            pc.send_request(&[i]).unwrap();
            assert!(pc.in_flight() <= 2, "in-flight {} > window", pc.in_flight());
        }
        let drained = pc.drain().unwrap();
        assert_eq!(drained.len(), 6);
        drop(pc);
        peer.join().unwrap();
    }

    #[test]
    fn pipelined_channel_discards_unknown_and_duplicate_corrs() {
        let (a, mut b) = mem_pair();
        let mut pc = PipelinedChannel::with_window(a, 4);
        let corr = pc.send_request(b"ping").unwrap();
        // Peer sends a stale/unknown correlation id, a duplicate of the
        // real reply, and then the real reply.
        let frame = b.recv().unwrap();
        assert!(untag_request(&frame).is_some());
        b.send(&crate::framing::tag_reply(9999, b"stale")).unwrap();
        b.send(&crate::framing::tag_reply(corr, b"pong")).unwrap();
        b.send(&crate::framing::tag_reply(corr, b"dup")).unwrap();
        assert_eq!(pc.recv_for(corr).unwrap(), b"pong");
        // The duplicate is ignored on the next pump, not delivered.
        let c2 = pc.send_request(b"again").unwrap();
        b.recv().unwrap();
        b.send(&crate::framing::tag_reply(c2, b"fresh")).unwrap();
        assert_eq!(pc.recv_for(c2).unwrap(), b"fresh");
    }

    #[test]
    fn pipelined_window_one_is_lockstep() {
        let (a, b) = mem_pair();
        let peer = pipelined_echo_peer(b, 1);
        let mut pc = PipelinedChannel::with_window(a, 1);
        for i in 0..4u8 {
            let corr = pc.send_request(&[i]).unwrap();
            assert_eq!(pc.in_flight(), 1, "lock-step: one in flight");
            let body = pc.recv_for(corr).unwrap();
            assert_eq!(body, [b'e', b'c', b'h', b'o', b':', i]);
        }
        drop(pc);
        peer.join().unwrap();
    }
}
