//! A typed client over any [`Transport`]: the request/reply pairing of
//! the protocol as plain method calls.
//!
//! [`Client::push`] builds no [`Message`]: the `PushFrames` frame is
//! written from the caller's [`MatView`] by the protocol's one matrix
//! encoder, through [`Connection::exchange`], into the connection's
//! reused buffer. A steady-state push over [`crate::Loopback`] therefore
//! makes no allocator call on its way to the shard and back
//! (`tests/codec_no_alloc.rs` at the workspace root counts them).

use std::time::Duration;

use orco_tensor::{MatView, Matrix};
use orcodcs::OrcoError;

use orcodcs::EncoderCheckpoint;

use crate::auth;
use crate::protocol::{Message, ModelVersion, Push};
use crate::stats::StatsSnapshot;
use crate::transport::{Connection, Transport};

/// The gateway's answer to a push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushOutcome {
    /// All rows entered the shard's micro-batcher.
    Accepted(u32),
    /// Backpressure: the shard's in-flight budget is exhausted. Drain
    /// with [`Client::pull`] or retry later.
    Busy {
        /// Rows currently in flight on the shard.
        queued: u32,
        /// The shard's in-flight row budget.
        capacity: u32,
    },
    /// The gateway does not own the cluster at `epoch`; retry the push
    /// against `addr` (the fleet client does this automatically).
    Redirected {
        /// Assignment epoch under which the owner was computed.
        epoch: u64,
        /// Dial address of the current owner.
        addr: String,
    },
}

/// The gateway's geometry as announced in `HelloAck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayInfo {
    /// Protocol version the gateway speaks.
    pub(crate) version: u16,
    /// Number of worker shards.
    pub(crate) shards: u16,
    /// Raw-frame width in f32 elements.
    pub frame_dim: u32,
    /// Encoded-code width in f32 elements.
    pub code_dim: u32,
    /// Id of the codec version the gateway is serving with.
    pub active_version: u64,
}

/// The gateway's rollout state as answered to a `VersionQuery`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// The codec version currently encoding flushes.
    pub active: ModelVersion,
    /// A proposed version staged but not yet activated, if any.
    pub(crate) staged: Option<ModelVersion>,
    /// The version the last activation replaced, while it is the
    /// rollback target.
    pub prior: Option<ModelVersion>,
    /// Lifetime count of guard-triggered rollbacks.
    pub rollbacks: u64,
    /// Whether the drift monitor currently flags the sampled error.
    pub(crate) drift: bool,
}

/// A typed gateway client over any [`Connection`].
#[derive(Debug)]
pub struct Client<C: Connection> {
    conn: C,
    auth_secret: Option<u64>,
    /// The id announced in the last [`Client::hello`]; seeds trace-id
    /// minting so ids are unique per client and deterministic per run.
    client_id: u64,
    /// Count of trace ids minted so far.
    trace_seq: u64,
}

impl<C: Connection> Client<C> {
    /// Opens a connection through `transport`.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when the gateway is unreachable.
    pub fn connect<T: Transport<Conn = C>>(transport: &T) -> Result<Self, OrcoError> {
        Ok(Self { conn: transport.connect()?, auth_secret: None, client_id: 0, trace_seq: 0 })
    }

    /// Mints the next trace id for this client: a Weyl-style sequence
    /// keyed by the client id, coerced away from 0 (the wire's
    /// "untraced" sentinel). Deterministic — a replayed run mints the
    /// same ids in the same order.
    fn mint_trace(&mut self) -> u64 {
        self.trace_seq += 1;
        let raw = self.client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.trace_seq;
        if raw == 0 {
            1
        } else {
            raw
        }
    }

    /// Sets the shared secret used to MAC subsequent [`Client::hello`]
    /// calls ([`crate::auth`]). `None` (the default) sends an unkeyed
    /// `Hello`, which authenticated gateways reject.
    pub fn set_auth_secret(&mut self, secret: Option<u64>) {
        self.auth_secret = secret;
    }

    /// Introduces the client and learns the gateway's geometry. With an
    /// auth secret set ([`Client::set_auth_secret`]), the `Hello` is
    /// MAC'd; the nonce is derived deterministically from `client_id` so
    /// replayed runs stay bit-identical.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and
    /// authentication rejections.
    pub fn hello(&mut self, client_id: u64) -> Result<GatewayInfo, OrcoError> {
        self.client_id = client_id;
        let nonce = client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6F72_636F;
        let mac = self.auth_secret.map_or(0, |s| auth::hello_mac(s, client_id, nonce));
        match self.conn.request(&Message::Hello { client_id, nonce, mac })? {
            Message::HelloAck { version, shards, frame_dim, code_dim, active_version } => {
                Ok(GatewayInfo { version, shards, frame_dim, code_dim, active_version })
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Pushes a batch of raw frames (one per row) for `cluster_id`.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, gateway rejections
    /// (wrong frame width, shutdown in progress), and pushes whose
    /// payload exceeds the wire protocol's frame bound — rejected here,
    /// client-side, with a "split the push" error instead of an opaque
    /// connection close from the server's frame reader.
    pub fn push(&mut self, cluster_id: u64, frames: MatView<'_>) -> Result<PushOutcome, OrcoError> {
        let payload = 24 + frames.len() * 4; // cluster_id + trace + rows/cols + data
        if payload > crate::protocol::MAX_PAYLOAD {
            return Err(OrcoError::Config {
                detail: format!(
                    "push of {} rows is a {payload}-byte payload, over the {}-byte wire \
                     frame bound; split the push",
                    frames.rows(),
                    crate::protocol::MAX_PAYLOAD
                ),
            });
        }
        let push = Push { cluster_id, trace: self.mint_trace(), frames };
        match self.conn.exchange(&mut |out| push.encode_into(out))? {
            Message::PushAck { accepted } => Ok(PushOutcome::Accepted(accepted)),
            Message::Busy { queued, capacity } => Ok(PushOutcome::Busy { queued, capacity }),
            Message::Redirect { epoch, addr, .. } => Ok(PushOutcome::Redirected { epoch, addr }),
            other => Err(unexpected("PushAck, Busy, or Redirect", &other)),
        }
    }

    /// Subscribes this connection to streamed decoded batches for
    /// `cluster_id` (server-push instead of polling). Returns the stored
    /// backlog at subscribe time; backlog rows are streamed immediately
    /// and surface via [`Client::recv_streamed`]. Only transports with a
    /// server-push channel (TCP, loopback) support this.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and gateways/transports
    /// without streaming support.
    pub fn subscribe(&mut self, cluster_id: u64) -> Result<u32, OrcoError> {
        let trace = self.mint_trace();
        match self.conn.request(&Message::Subscribe { cluster_id, trace })? {
            Message::SubscribeAck { cluster_id: got, backlog } if got == cluster_id => Ok(backlog),
            other => Err(unexpected("SubscribeAck", &other)),
        }
    }

    /// Removes this connection's subscription for `cluster_id`.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn unsubscribe(&mut self, cluster_id: u64) -> Result<(), OrcoError> {
        match self.conn.request(&Message::Unsubscribe { cluster_id })? {
            Message::SubscribeAck { .. } => Ok(()),
            other => Err(unexpected("SubscribeAck", &other)),
        }
    }

    /// Returns the next streamed delivery — `(cluster_id, decoded
    /// frames)` — waiting up to `timeout`. `Ok(None)` means nothing was
    /// streamed in time.
    ///
    /// # Errors
    ///
    /// Transport failures and non-stream frames arriving out of band.
    pub fn recv_streamed(&mut self, timeout: Duration) -> Result<Option<(u64, Matrix)>, OrcoError> {
        Ok(self.recv_streamed_versioned(timeout)?.map(|(cluster, _, frames)| (cluster, frames)))
    }

    /// [`Client::recv_streamed`] plus the id of the codec version that
    /// produced the batch: `(cluster_id, version_id, frames)`. During a
    /// hot swap consecutive deliveries can carry different versions, but
    /// any one delivery is encoded entirely by one.
    ///
    /// # Errors
    ///
    /// Transport failures and non-stream frames arriving out of band.
    pub fn recv_streamed_versioned(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, u64, Matrix)>, OrcoError> {
        match self.conn.poll_stream(timeout)? {
            Some(Message::StreamFrames { cluster_id, version, frames }) => {
                Ok(Some((cluster_id, version, frames)))
            }
            Some(other) => Err(unexpected("StreamFrames", &other)),
            None => Ok(None),
        }
    }

    /// Pulls up to `max_frames` decoded reconstructions for `cluster_id`
    /// (empty matrix when nothing is stored), oldest first, push order.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and gateway-side codec
    /// failures.
    pub fn pull(&mut self, cluster_id: u64, max_frames: u32) -> Result<Matrix, OrcoError> {
        self.pull_versioned(cluster_id, max_frames).map(|(_, frames)| frames)
    }

    /// [`Client::pull`] plus the id of the codec version that produced
    /// the reply: `(version_id, frames)`. Mid-swap a reply stops at the
    /// old/new version boundary, so every reply is single-version; pull
    /// again for the remainder.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and gateway-side codec
    /// failures.
    pub fn pull_versioned(
        &mut self,
        cluster_id: u64,
        max_frames: u32,
    ) -> Result<(u64, Matrix), OrcoError> {
        let trace = self.mint_trace();
        match self.conn.request(&Message::PullDecoded { cluster_id, max_frames, trace })? {
            Message::Decoded { cluster_id: got, version, frames } => {
                if got != cluster_id {
                    return Err(OrcoError::Config {
                        detail: format!(
                            "protocol violation: pulled cluster {cluster_id} but the reply \
                             carries cluster {got}"
                        ),
                    });
                }
                Ok((version, frames))
            }
            other => Err(unexpected("Decoded", &other)),
        }
    }

    /// Stages `version` (with the encoder weights in `checkpoint`) on
    /// the gateway without changing what serves. Requires the shared
    /// secret when the gateway is authenticated; the nonce is minted
    /// deterministically like [`Client::hello`]'s.
    ///
    /// # Errors
    ///
    /// Transport failures, authentication rejections, and proposals the
    /// gateway refuses (geometry mismatch, stale version id) — the
    /// refusal detail is surfaced in the error.
    pub fn propose_rollout(
        &mut self,
        version: ModelVersion,
        checkpoint: &EncoderCheckpoint,
    ) -> Result<(), OrcoError> {
        let nonce = self.mint_trace();
        let mac = self.auth_secret.map_or(0, |s| auth::rollout_mac(s, version.id, nonce));
        let msg = Message::RolloutPropose {
            version,
            weight: checkpoint.weight.clone(),
            bias: checkpoint.bias.clone(),
            nonce,
            mac,
        };
        match self.conn.request(&msg)? {
            Message::RolloutAck { accepted: true, .. } => Ok(()),
            Message::RolloutAck { version_id, accepted: false, detail } => Err(OrcoError::Config {
                detail: format!("gateway refused to stage version {version_id}: {detail}"),
            }),
            other => Err(unexpected("RolloutAck", &other)),
        }
    }

    /// Cuts the staged `version_id` over to active. The gateway swaps at
    /// each shard's next flush boundary; rows already batched flush under
    /// the old version first, so nothing is dropped or re-encoded.
    ///
    /// # Errors
    ///
    /// Transport failures, authentication rejections, and activations
    /// the gateway refuses (nothing staged, id mismatch).
    pub fn activate_version(&mut self, version_id: u64) -> Result<(), OrcoError> {
        let nonce = self.mint_trace();
        let mac = self.auth_secret.map_or(0, |s| auth::rollout_mac(s, version_id, nonce));
        match self.conn.request(&Message::ActivateVersion { version_id, nonce, mac })? {
            Message::RolloutAck { accepted: true, .. } => Ok(()),
            Message::RolloutAck { accepted: false, detail, .. } => Err(OrcoError::Config {
                detail: format!("gateway refused to activate version {version_id}: {detail}"),
            }),
            other => Err(unexpected("RolloutAck", &other)),
        }
    }

    /// Fetches the gateway's rollout state: active/staged/prior codec
    /// versions, rollback count, and the live drift flag.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn version_info(&mut self) -> Result<VersionInfo, OrcoError> {
        match self.conn.request(&Message::VersionQuery)? {
            Message::VersionReply { active, staged, prior, rollbacks, drift } => {
                Ok(VersionInfo { active, staged, prior, rollbacks, drift })
            }
            other => Err(unexpected("VersionReply", &other)),
        }
    }

    /// Fetches the gateway's serving statistics.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn stats(&mut self) -> Result<StatsSnapshot, OrcoError> {
        match self.conn.request(&Message::StatsRequest)? {
            Message::StatsReply(snapshot) => Ok(snapshot),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// Scrapes the gateway's metrics text exposition.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn metrics(&mut self) -> Result<String, OrcoError> {
        match self.conn.request(&Message::MetricsRequest)? {
            Message::MetricsReply { text } => Ok(text),
            other => Err(unexpected("MetricsReply", &other)),
        }
    }

    /// Asks the gateway to flush, stop accepting work, and exit.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn shutdown(&mut self) -> Result<(), OrcoError> {
        match self.conn.request(&Message::Shutdown)? {
            Message::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

fn unexpected(expected: &str, got: &Message) -> OrcoError {
    match got {
        Message::ErrorReply { code, detail } => OrcoError::Config {
            detail: format!("gateway rejected the request ({code:?}): {detail}"),
        },
        other => OrcoError::Config {
            detail: format!("protocol violation: expected {expected}, got {}", other.kind()),
        },
    }
}
