//! Network substrate for the BorderPatrol reproduction.
//!
//! The original prototype runs on a real Linux/Android network stack: sockets,
//! the `IP_OPTIONS` header field (RFC 791), `setsockopt` gated by kernel
//! capabilities, iptables redirection into NFQUEUE, and user-space queue
//! consumers for policy enforcement and packet sanitisation.  This crate
//! reproduces those mechanisms as a deterministic simulation:
//!
//! * [`packet`] — IPv4 packets with an options field and their one wire
//!   encoder (header checksum included).
//! * [`options`] — the RFC 791 options area (40-byte budget) and option kinds.
//! * [`socket`] — sockets with Dalvik-style *lazy* OS-socket creation
//!   (§II-B1 of the paper): the `socket` syscall is only issued on
//!   `connect`/`bind`.
//! * [`kernel`] — the capability-checked kernel interface, including the
//!   "one-line patch" that lets unprivileged code set `IP_OPTIONS`, and the
//!   hardened *set-once* mode that defeats tag-replay (§VII).
//! * [`netfilter`] — iptables-like rules, NFQUEUE verdict handlers and filter
//!   chains.
//! * [`iface`] — SLIRP vs TAP interface latency models (the Fig. 4 axis).
//! * [`fleet`] — deterministic device-index addressing and packet templates
//!   for fleet-scale traffic synthesis without per-device state.
//! * [`http`] — a minimal HTTP request/response model plus the 297-byte static
//!   page server used by the performance stress test.
//! * [`network`] — the enterprise network tying device egress, filter chains,
//!   captures and WAN servers together.
//! * [`clock`] — the simulated clock and per-component latency model.
//!
//! # Examples
//!
//! ```
//! use bp_netsim::packet::Ipv4Packet;
//! use bp_netsim::addr::Endpoint;
//!
//! let pkt = Ipv4Packet::new(
//!     Endpoint::new([10, 0, 0, 2], 40000),
//!     Endpoint::new([93, 184, 216, 34], 443),
//!     b"hello".to_vec(),
//! );
//! // Header, the two ports, the payload: the wire form the enforcement
//! // plane parses (`bp-core::wire`).
//! let bytes = pkt.wire_bytes();
//! assert_eq!(bytes.len(), pkt.total_len() + 4);
//! assert!(bytes.ends_with(b"hello"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod capture;
pub mod clock;
pub mod fleet;
pub mod http;
pub mod iface;
pub mod kernel;
pub mod netfilter;
pub mod network;
pub mod options;
pub mod packet;
pub mod socket;

pub use addr::{DnsTable, Endpoint};
pub use capture::PacketCapture;
pub use clock::{LatencyModel, SimClock, SimDuration};
pub use fleet::{FleetAddressing, PacketTemplate};
pub use iface::{InterfaceMode, NetworkInterface};
pub use kernel::{Capability, KernelConfig, KernelNetStack, ProcessCredentials};
pub use netfilter::{FilterChain, NfQueue, QueueHandler, Verdict};
pub use network::{Delivery, EnterpriseNetwork, WanServer};
pub use options::{IpOption, IpOptionKind, IpOptions, MAX_OPTIONS_LEN};
pub use packet::{FlowKey, Ipv4Packet, Protocol};
pub use socket::{Socket, SocketState, SocketTable};
