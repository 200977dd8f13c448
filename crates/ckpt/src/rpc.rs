//! The `aicd` fleet socket protocol: AIRF frames over a Unix socket.
//!
//! Wire format mirrors the checkpoint log's AILR record framing
//! ([`crate::log`]): a fixed header of magic + kind + length + FNV-1a
//! checksum, then the payload. Header layout (17 bytes):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "AIRF"
//! 4       1     kind
//! 5       4     payload length, u32 LE
//! 9       8     FNV-1a over the payload, u64 LE
//! ```
//!
//! Request kinds are `join` (0x01), `cut` (0x02), `crash` (0x03),
//! `recover` (0x04), `leave` (0x05), `stats` (0x06); a success response
//! echoes the request kind with the high bit set (`kind | 0x80`); an error
//! response is kind 0xFF with a UTF-8 message payload. All payload
//! integers are little-endian.
//!
//! Sessions are **connection-bound**: `join` binds a tenant session to the
//! connection, and the connection closing — cleanly or not — drops the
//! session, which releases its admission slot, read pins, and records
//! (see [`TenantSession`]'s `Drop`). A half-finished client can therefore
//! never strand shared state.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use aic_delta::strong::fnv1a;

use crate::script::StreamEvent;
use crate::service::TenantPolicy;
use crate::wallclock::{FleetServer, TenantSession};

/// Frame magic, the protocol's four-byte signature.
pub const RPC_MAGIC: &[u8; 4] = b"AIRF";
/// Fixed header size in bytes: magic + kind + length + checksum.
pub const RPC_HEADER_BYTES: usize = 17;
/// Largest accepted payload; a length beyond this is a corrupt frame.
pub const RPC_MAX_PAYLOAD: u32 = 16 << 20;

/// Request verb: join the fleet (persona, policy, rounds).
pub const KIND_JOIN: u8 = 0x01;
/// Request verb: cut one checkpoint.
pub const KIND_CUT: u8 = 0x02;
/// Request verb: crash at a level (1..=3).
pub const KIND_CRASH: u8 = 0x03;
/// Request verb: close the recovery window and resume.
pub const KIND_RECOVER: u8 = 0x04;
/// Request verb: depart, verifying and retiring the tenant's records.
pub const KIND_LEAVE: u8 = 0x05;
/// Request verb: fetch the server's live counter snapshot.
pub const KIND_STATS: u8 = 0x06;
/// Error response kind; payload is a UTF-8 message.
pub const KIND_ERROR: u8 = 0xFF;
/// Success responses echo the request kind with this bit set.
pub const RESP_BIT: u8 = 0x80;

/// Write one frame: header (magic, kind, length, FNV-1a of payload) then
/// payload.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut hdr = [0u8; RPC_HEADER_BYTES];
    hdr[0..4].copy_from_slice(RPC_MAGIC);
    hdr[4] = kind;
    hdr[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[9..17].copy_from_slice(&fnv1a(payload).to_le_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame, verifying magic, length bound, and checksum. Returns
/// `(kind, payload)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut hdr = [0u8; RPC_HEADER_BYTES];
    r.read_exact(&mut hdr)?;
    if &hdr[0..4] != RPC_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad AIRF magic"));
    }
    let kind = hdr[4];
    let len = u32::from_le_bytes(hdr[5..9].try_into().expect("4 bytes"));
    if len > RPC_MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "AIRF payload too large",
        ));
    }
    let crc = u64::from_le_bytes(hdr[9..17].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if fnv1a(&payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "AIRF payload checksum mismatch",
        ));
    }
    Ok((kind, payload))
}

fn encode_policy(p: TenantPolicy, out: &mut Vec<u8>) {
    match p {
        TenantPolicy::Fixed(w) => {
            out.push(0);
            out.extend_from_slice(&w.to_le_bytes());
        }
        TenantPolicy::Adaptive { bootstrap } => {
            out.push(1);
            out.extend_from_slice(&bootstrap.to_le_bytes());
        }
    }
}

/// Decode a JOIN policy; its interval (`w` or `bootstrap`) must be a
/// finite, positive number of seconds.
fn decode_policy(b: &[u8]) -> io::Result<TenantPolicy> {
    let f = f64::from_le_bytes(
        b.get(1..9)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short policy"))?
            .try_into()
            .expect("8 bytes"),
    );
    if !(f.is_finite() && f > 0.0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("policy interval {f} is not a finite, positive number of seconds"),
        ));
    }
    match b.first() {
        Some(0) => Ok(TenantPolicy::Fixed(f)),
        Some(1) => Ok(TenantPolicy::Adaptive { bootstrap: f }),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unknown policy tag",
        )),
    }
}

/// A `cut` response: the commit the server just made for this tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutReply {
    /// Per-tenant commit ordinal (1-based).
    pub ordinal: u64,
    /// Workload round the checkpoint captures.
    pub round: u64,
    /// Whether this was a full anchor.
    pub full: bool,
    /// Mode-invariant payload digest (see [`crate::script::payload_digest`]).
    pub payload_digest: u64,
    /// The tenant's checkpoint interval after this commit, exact bits.
    pub w_bits: u64,
}

/// A `recover` response: how the tenant came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverReply {
    /// Level that served the recovery (0 = from scratch).
    pub level: u64,
    /// Round the tenant resumed at.
    pub round: u64,
    /// Digest of the recovered image (0 when from scratch).
    pub image_digest: u64,
}

/// A `leave` response: the departure verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaveReply {
    /// Departure-time verification: `None` when nothing was recoverable.
    pub verified: Option<bool>,
    /// Records still live after retirement (must be 0).
    pub leaked: u64,
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Serve fleet RPCs on `listener` until `stop` goes true. Each connection
/// gets its own handler thread and (after `join`) its own tenant session;
/// a disconnect drops the session, releasing everything it held.
pub fn serve(listener: UnixListener, server: &FleetServer, stop: &AtomicBool) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    thread::scope(|sc| -> io::Result<()> {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    sc.spawn(move || {
                        let _ = handle_conn(stream, server, stop);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })
}

fn handle_conn(stream: UnixStream, server: &FleetServer, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut session: Option<TenantSession<'_>> = None;
    loop {
        let (kind, payload) = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    return Ok(()); // session drops here, releasing its slot
                }
                continue;
            }
            Err(_) => return Ok(()), // disconnect: session drops here
        };
        let reply = dispatch(kind, &payload, server, &mut session);
        match reply {
            Ok((k, body)) => write_frame(&mut writer, k, &body)?,
            Err(msg) => write_frame(&mut writer, KIND_ERROR, msg.as_bytes())?,
        }
        if kind == KIND_LEAVE && session.is_none() {
            return Ok(()); // clean departure ends the connection
        }
    }
}

/// The connection's session, which `verb` needs up (not crashed).
fn up_session<'a, 'srv>(
    session: &'a mut Option<TenantSession<'srv>>,
    verb: &str,
) -> Result<&'a mut TenantSession<'srv>, String> {
    let sess = session
        .as_mut()
        .ok_or_else(|| format!("{verb} before join"))?;
    if sess.is_down() {
        return Err(format!("{verb} on a crashed session (recover first)"));
    }
    Ok(sess)
}

fn dispatch<'srv>(
    kind: u8,
    payload: &[u8],
    server: &'srv FleetServer,
    session: &mut Option<TenantSession<'srv>>,
) -> Result<(u8, Vec<u8>), String> {
    match kind {
        KIND_JOIN => {
            if session.is_some() {
                return Err("already joined".into());
            }
            if payload.len() != 4 + 9 + 8 {
                return Err("join payload must be persona u32 + policy + rounds u64".into());
            }
            let persona = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
            let policy = decode_policy(&payload[4..13]).map_err(|e| e.to_string())?;
            let rounds = u64::from_le_bytes(payload[13..21].try_into().expect("8 bytes"));
            if rounds == 0 {
                return Err("rounds must be at least 1".into());
            }
            if persona >= server.fleet().ranks() {
                return Err(format!(
                    "persona {persona} outside the fleet ({} ranks)",
                    server.fleet().ranks()
                ));
            }
            let sess = server.join(persona, policy, rounds);
            let id = sess.id() as u64;
            *session = Some(sess);
            Ok((KIND_JOIN | RESP_BIT, id.to_le_bytes().to_vec()))
        }
        KIND_CUT => {
            let sess = up_session(session, "cut")?;
            let ev = sess.cut().map_err(|e| e.to_string())?;
            let StreamEvent::Commit {
                ordinal,
                round,
                full,
                payload_digest,
                w_bits,
                ..
            } = ev
            else {
                return Err("cut did not commit".into());
            };
            let mut body = Vec::with_capacity(33);
            body.extend_from_slice(&ordinal.to_le_bytes());
            body.extend_from_slice(&round.to_le_bytes());
            body.push(u8::from(*full));
            body.extend_from_slice(&payload_digest.to_le_bytes());
            body.extend_from_slice(&w_bits.to_le_bytes());
            Ok((KIND_CUT | RESP_BIT, body))
        }
        KIND_CRASH => {
            let sess = up_session(session, "crash")?;
            let level = *payload.first().ok_or("crash payload must be level u8")? as usize;
            if !(1..=3).contains(&level) {
                return Err("crash level must be 1..=3".into());
            }
            sess.crash(level).map_err(|e| e.to_string())?;
            Ok((KIND_CRASH | RESP_BIT, Vec::new()))
        }
        KIND_RECOVER => {
            let sess = session.as_mut().ok_or("recover before join")?;
            if !sess.is_down() {
                return Err("recover on a session that has not crashed".into());
            }
            let ev = sess.recover().map_err(|e| e.to_string())?;
            let StreamEvent::Recover {
                level,
                round,
                image_digest,
            } = ev
            else {
                return Err("recover produced no event".into());
            };
            let mut body = Vec::with_capacity(17);
            body.push(*level as u8);
            body.extend_from_slice(&round.to_le_bytes());
            body.extend_from_slice(&image_digest.to_le_bytes());
            Ok((KIND_RECOVER | RESP_BIT, body))
        }
        KIND_LEAVE => {
            up_session(session, "leave")?;
            let sess = session.take().expect("an up session");
            let events = sess.leave();
            let Some(StreamEvent::Leave { verified, leaked }) = events.last() else {
                return Err("leave produced no event".into());
            };
            let mut body = Vec::with_capacity(9);
            body.push(match verified {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            body.extend_from_slice(&leaked.to_le_bytes());
            Ok((KIND_LEAVE | RESP_BIT, body))
        }
        KIND_STATS => Ok((KIND_STATS | RESP_BIT, server.stats().render().into_bytes())),
        other => Err(format!("unknown request kind 0x{other:02x}")),
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Blocking client for the fleet socket — what `aicctl fleet` speaks.
pub struct FleetClient {
    stream: UnixStream,
}

impl FleetClient {
    /// Connect to an `aicd --wallclock` socket.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(FleetClient {
            stream: UnixStream::connect(path)?,
        })
    }

    fn call(&mut self, kind: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, kind, payload)?;
        let (k, body) = read_frame(&mut self.stream)?;
        if k == KIND_ERROR {
            return Err(io::Error::other(
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        if k != kind | RESP_BIT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response kind 0x{k:02x} for request 0x{kind:02x}"),
            ));
        }
        Ok(body)
    }

    /// Join the fleet; returns the tenant id the server assigned.
    pub fn join(&mut self, persona: usize, policy: TenantPolicy, rounds: u64) -> io::Result<u64> {
        let mut p = Vec::with_capacity(21);
        p.extend_from_slice(&(persona as u32).to_le_bytes());
        encode_policy(policy, &mut p);
        p.extend_from_slice(&rounds.to_le_bytes());
        let body = self.call(KIND_JOIN, &p)?;
        Ok(u64::from_le_bytes(body.as_slice().try_into().map_err(
            |_| io::Error::new(io::ErrorKind::InvalidData, "short join reply"),
        )?))
    }

    /// Cut one checkpoint.
    pub fn cut(&mut self) -> io::Result<CutReply> {
        let b = self.call(KIND_CUT, &[])?;
        if b.len() != 33 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short cut reply",
            ));
        }
        Ok(CutReply {
            ordinal: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            round: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            full: b[16] != 0,
            payload_digest: u64::from_le_bytes(b[17..25].try_into().expect("8 bytes")),
            w_bits: u64::from_le_bytes(b[25..33].try_into().expect("8 bytes")),
        })
    }

    /// Crash at `level` (1..=3). The session stays down (pins held) until
    /// [`FleetClient::recover`].
    pub fn crash(&mut self, level: usize) -> io::Result<()> {
        self.call(KIND_CRASH, &[level as u8])?;
        Ok(())
    }

    /// Close the recovery window and resume.
    pub fn recover(&mut self) -> io::Result<RecoverReply> {
        let b = self.call(KIND_RECOVER, &[])?;
        if b.len() != 17 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short recover reply",
            ));
        }
        Ok(RecoverReply {
            level: b[0] as u64,
            round: u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")),
            image_digest: u64::from_le_bytes(b[9..17].try_into().expect("8 bytes")),
        })
    }

    /// Depart the fleet.
    pub fn leave(&mut self) -> io::Result<LeaveReply> {
        let b = self.call(KIND_LEAVE, &[])?;
        if b.len() != 9 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short leave reply",
            ));
        }
        Ok(LeaveReply {
            verified: match b[0] {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
            leaked: u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")),
        })
    }

    /// Fetch the server's live stats, rendered one `name value` per line.
    pub fn stats(&mut self) -> io::Result<String> {
        let b = self.call(KIND_STATS, &[])?;
        String::from_utf8(b)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stats not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_CUT, b"hello").unwrap();
        assert_eq!(buf.len(), RPC_HEADER_BYTES + 5);
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, KIND_CUT);
        assert_eq!(payload, b"hello");

        // Flip a payload byte: the checksum must catch it.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(read_frame(&mut bad.as_slice()).is_err());

        // Break the magic.
        let mut bad = buf;
        bad[0] = b'X';
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn policy_roundtrip() {
        for p in [
            TenantPolicy::Fixed(2.5),
            TenantPolicy::Adaptive { bootstrap: 4.0 },
        ] {
            let mut buf = Vec::new();
            encode_policy(p, &mut buf);
            let q = decode_policy(&buf).unwrap();
            match (p, q) {
                (TenantPolicy::Fixed(a), TenantPolicy::Fixed(b)) => assert_eq!(a, b),
                (
                    TenantPolicy::Adaptive { bootstrap: a },
                    TenantPolicy::Adaptive { bootstrap: b },
                ) => assert_eq!(a, b),
                _ => panic!("policy tag changed in roundtrip"),
            }
        }
        // Intervals that are not a finite, positive number of seconds are
        // refused for both policy kinds.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -2.5] {
            for p in [
                TenantPolicy::Fixed(bad),
                TenantPolicy::Adaptive { bootstrap: bad },
            ] {
                let mut buf = Vec::new();
                encode_policy(p, &mut buf);
                let err = decode_policy(&buf).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{p:?}");
            }
        }
    }

    /// The server's error reply to a request, as the client surfaces it
    /// (an EOF or a protocol error here would mean the handler died).
    fn refused<T: std::fmt::Debug>(r: io::Result<T>) -> String {
        let err = r.expect_err("request must be refused");
        assert_eq!(
            err.kind(),
            io::ErrorKind::Other,
            "not an error reply: {err}"
        );
        err.to_string()
    }

    /// Out-of-order verbs on one connection, then malformed joins on a
    /// second: each is refused, and both sessions still leave cleanly.
    fn refusals_client(path: &Path) {
        let mut c = FleetClient::connect(path).expect("connect");
        c.join(0, TenantPolicy::Fixed(2.0), 4).expect("join");
        assert!(refused(c.recover()).contains("not crashed"));
        c.cut().expect("cut");
        c.crash(1).expect("crash");
        assert!(refused(c.cut()).contains("recover first"));
        assert!(refused(c.crash(2)).contains("recover first"));
        assert!(refused(c.leave()).contains("recover first"));
        c.recover().expect("recover after the refusals");
        c.cut().expect("cut after recovery");
        let bye = c.leave().expect("clean leave");
        assert_ne!(bye.verified, Some(false), "departure failed verify");
        assert_eq!(bye.leaked, 0, "records leaked past departure");

        let mut c = FleetClient::connect(path).expect("reconnect");
        let inf = f64::INFINITY;
        for (policy, rounds) in [
            (TenantPolicy::Fixed(f64::NAN), 4),
            (TenantPolicy::Fixed(0.0), 4),
            (TenantPolicy::Adaptive { bootstrap: -1.0 }, 4),
            (TenantPolicy::Adaptive { bootstrap: inf }, 4),
            (TenantPolicy::Fixed(2.0), 0),
        ] {
            refused(c.join(1, policy, rounds));
        }
        c.join(1, TenantPolicy::Adaptive { bootstrap: 3.0 }, 2)
            .expect("valid join after the refusals");
        c.cut().expect("cut");
        assert_eq!(c.leave().expect("leave").leaked, 0);
    }

    #[test]
    fn out_of_order_verbs_and_bad_joins_get_error_replies() {
        use crate::fleet::SharedDatasetFleet;
        use crate::service::ServiceConfig;
        use aic_model::FailureRates;

        let path = std::env::temp_dir().join(format!("aicd-rpc-unit-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 6], 30, 13);
        let mut cfg = ServiceConfig::fleet_default(FailureRates::new(vec![3e-4, 2e-4, 1e-4]));
        cfg.cores = 2;
        cfg.b3 = 1.0e6;
        let server = FleetServer::start(fleet, cfg);
        let listener = UnixListener::bind(&path).expect("bind test socket");
        let stop = AtomicBool::new(false);

        // The client runs on its own thread so that a failed assertion
        // still stops the server instead of wedging the scope.
        let (client, served) = thread::scope(|sc| {
            let serve = sc.spawn(|| serve(listener, &server, &stop));
            let client = sc.spawn(|| refusals_client(&path)).join();
            stop.store(true, Ordering::Relaxed);
            (client, serve.join())
        });
        if let Err(panic) = client {
            std::panic::resume_unwind(panic);
        }
        let served = served.expect("serve thread panicked");
        let _ = std::fs::remove_file(&path);
        assert!(served.is_ok(), "serve failed: {served:?}");
        assert_eq!(server.violations(), 0);
        assert_eq!(server.stats().active, 0);
    }
}
