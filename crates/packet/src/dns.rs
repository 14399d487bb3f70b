//! Minimal DNS message encoding/decoding (RFC 1035) — enough for the DNS
//! load-balancer NF: queries with QNAME/QTYPE, responses with A/CNAME answer
//! records, and name compression on the parse path.

use bytes::{BufMut, BytesMut};
use gnf_types::{GnfError, GnfResult};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// DNS header length.
pub const DNS_HEADER_LEN: usize = 12;

/// The standard DNS UDP port.
pub const DNS_PORT: u16 = 53;

/// Record / query types understood by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnsRecordType {
    /// IPv4 address record.
    A,
    /// Alias record.
    Cname,
    /// IPv6 address record (recognised, not synthesised).
    Aaaa,
    /// Any other type preserved verbatim.
    Other(u16),
}

impl DnsRecordType {
    /// Numeric RR type.
    pub fn value(&self) -> u16 {
        match self {
            DnsRecordType::A => 1,
            DnsRecordType::Cname => 5,
            DnsRecordType::Aaaa => 28,
            DnsRecordType::Other(v) => *v,
        }
    }
}

impl From<u16> for DnsRecordType {
    fn from(value: u16) -> Self {
        match value {
            1 => DnsRecordType::A,
            5 => DnsRecordType::Cname,
            28 => DnsRecordType::Aaaa,
            other => DnsRecordType::Other(other),
        }
    }
}

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsResponseCode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Anything else.
    Other(u8),
}

impl DnsResponseCode {
    /// Numeric RCODE.
    pub fn value(&self) -> u8 {
        match self {
            DnsResponseCode::NoError => 0,
            DnsResponseCode::FormErr => 1,
            DnsResponseCode::ServFail => 2,
            DnsResponseCode::NxDomain => 3,
            DnsResponseCode::Other(v) => *v,
        }
    }
}

impl From<u8> for DnsResponseCode {
    fn from(value: u8) -> Self {
        match value {
            0 => DnsResponseCode::NoError,
            1 => DnsResponseCode::FormErr,
            2 => DnsResponseCode::ServFail,
            3 => DnsResponseCode::NxDomain,
            other => DnsResponseCode::Other(other),
        }
    }
}

/// A DNS question.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsQuestion {
    /// Queried name, lower-cased, without trailing dot (e.g. `www.gla.ac.uk`).
    pub name: String,
    /// Query type.
    pub qtype: DnsRecordType,
}

/// A DNS resource record in the answer section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsAnswer {
    /// Record owner name.
    pub name: String,
    /// Record type.
    pub rtype: DnsRecordType,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Record data.
    pub rdata: DnsRdata,
}

/// Decoded record data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsRdata {
    /// An IPv4 address (A record).
    Ipv4(Ipv4Addr),
    /// A domain name (CNAME record).
    Name(String),
    /// Raw bytes for unrecognised record types.
    Raw(Vec<u8>),
}

/// A DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsMessage {
    /// Transaction identifier.
    pub id: u16,
    /// True for responses, false for queries.
    pub is_response: bool,
    /// Recursion-desired flag.
    pub recursion_desired: bool,
    /// Response code (meaningful for responses).
    pub rcode: DnsResponseCode,
    /// Question section.
    pub questions: Vec<DnsQuestion>,
    /// Answer section.
    pub answers: Vec<DnsAnswer>,
}

impl DnsMessage {
    /// Builds an A-record query for `name`.
    pub fn query(id: u16, name: &str) -> Self {
        DnsMessage {
            id,
            is_response: false,
            recursion_desired: true,
            rcode: DnsResponseCode::NoError,
            questions: vec![DnsQuestion {
                name: normalize_name(name),
                qtype: DnsRecordType::A,
            }],
            answers: Vec::new(),
        }
    }

    /// Builds a response to `query` answering its first question with the
    /// given IPv4 addresses.
    pub fn response_to(query: &DnsMessage, addresses: &[Ipv4Addr], ttl: u32) -> Self {
        let name = query
            .questions
            .first()
            .map(|q| q.name.clone())
            .unwrap_or_default();
        DnsMessage {
            id: query.id,
            is_response: true,
            recursion_desired: query.recursion_desired,
            rcode: if addresses.is_empty() {
                DnsResponseCode::NxDomain
            } else {
                DnsResponseCode::NoError
            },
            questions: query.questions.clone(),
            answers: addresses
                .iter()
                .map(|addr| DnsAnswer {
                    name: name.clone(),
                    rtype: DnsRecordType::A,
                    ttl,
                    rdata: DnsRdata::Ipv4(*addr),
                })
                .collect(),
        }
    }

    /// Returns the name of the first question, if any.
    pub fn first_question_name(&self) -> Option<&str> {
        self.questions.first().map(|q| q.name.as_str())
    }

    /// Returns all IPv4 addresses present in A answers.
    pub fn a_records(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|a| match a.rdata {
                DnsRdata::Ipv4(addr) => Some(addr),
                _ => None,
            })
            .collect()
    }

    /// Parses a DNS message from a UDP payload.
    pub fn parse(data: &[u8]) -> GnfResult<Self> {
        if data.len() < DNS_HEADER_LEN {
            return Err(GnfError::malformed_packet(
                "dns",
                format!("message too short: {} bytes", data.len()),
            ));
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = u16::from_be_bytes([data[2], data[3]]);
        let is_response = flags & 0x8000 != 0;
        let recursion_desired = flags & 0x0100 != 0;
        let rcode = DnsResponseCode::from((flags & 0x000f) as u8);
        let qdcount = u16::from_be_bytes([data[4], data[5]]) as usize;
        let ancount = u16::from_be_bytes([data[6], data[7]]) as usize;

        let mut offset = DNS_HEADER_LEN;
        let mut questions = Vec::with_capacity(qdcount.min(32));
        for _ in 0..qdcount {
            let (name, next) = parse_name(data, offset)?;
            if next + 4 > data.len() {
                return Err(GnfError::malformed_packet("dns", "truncated question"));
            }
            let qtype = u16::from_be_bytes([data[next], data[next + 1]]);
            questions.push(DnsQuestion {
                name,
                qtype: DnsRecordType::from(qtype),
            });
            offset = next + 4;
        }

        let mut answers = Vec::with_capacity(ancount.min(32));
        for _ in 0..ancount {
            let (name, next) = parse_name(data, offset)?;
            if next + 10 > data.len() {
                return Err(GnfError::malformed_packet("dns", "truncated answer"));
            }
            let rtype = DnsRecordType::from(u16::from_be_bytes([data[next], data[next + 1]]));
            let ttl = u32::from_be_bytes([
                data[next + 4],
                data[next + 5],
                data[next + 6],
                data[next + 7],
            ]);
            let rdlength = u16::from_be_bytes([data[next + 8], data[next + 9]]) as usize;
            let rdata_start = next + 10;
            if rdata_start + rdlength > data.len() {
                return Err(GnfError::malformed_packet("dns", "truncated rdata"));
            }
            let rdata_bytes = &data[rdata_start..rdata_start + rdlength];
            let rdata = match rtype {
                DnsRecordType::A if rdlength == 4 => DnsRdata::Ipv4(Ipv4Addr::new(
                    rdata_bytes[0],
                    rdata_bytes[1],
                    rdata_bytes[2],
                    rdata_bytes[3],
                )),
                DnsRecordType::Cname => {
                    let (cname, _) = parse_name(data, rdata_start)?;
                    DnsRdata::Name(cname)
                }
                _ => DnsRdata::Raw(rdata_bytes.to_vec()),
            };
            answers.push(DnsAnswer {
                name,
                rtype,
                ttl,
                rdata,
            });
            offset = rdata_start + rdlength;
        }

        Ok(DnsMessage {
            id,
            is_response,
            recursion_desired,
            rcode,
            questions,
            answers,
        })
    }

    /// Appends the wire representation to `buf` (no name compression).
    pub fn emit(&self, buf: &mut BytesMut) {
        buf.put_u16(self.id);
        let mut flags = 0u16;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.is_response {
            flags |= 0x0080; // recursion available
        }
        flags |= u16::from(self.rcode.value());
        buf.put_u16(flags);
        buf.put_u16(self.questions.len() as u16);
        buf.put_u16(self.answers.len() as u16);
        buf.put_u16(0); // NSCOUNT
        buf.put_u16(0); // ARCOUNT
        for q in &self.questions {
            emit_name(buf, &q.name);
            buf.put_u16(q.qtype.value());
            buf.put_u16(1); // class IN
        }
        for a in &self.answers {
            emit_name(buf, &a.name);
            buf.put_u16(a.rtype.value());
            buf.put_u16(1); // class IN
            buf.put_u32(a.ttl);
            match &a.rdata {
                DnsRdata::Ipv4(addr) => {
                    buf.put_u16(4);
                    buf.put_slice(&addr.octets());
                }
                DnsRdata::Name(name) => {
                    let mut tmp = BytesMut::new();
                    emit_name(&mut tmp, name);
                    buf.put_u16(tmp.len() as u16);
                    buf.put_slice(&tmp);
                }
                DnsRdata::Raw(bytes) => {
                    buf.put_u16(bytes.len() as u16);
                    buf.put_slice(bytes);
                }
            }
        }
    }

    /// Serialises the message into a fresh byte vector (UDP payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.emit(&mut buf);
        buf.to_vec()
    }
}

/// The wire length of `DnsMessage::query(id, name)`.
pub(crate) fn query_len(name: &str) -> usize {
    let name_len: usize = wire_labels(name)
        .map(|label| 1 + label.len())
        .sum::<usize>()
        + 1;
    DNS_HEADER_LEN + name_len + 4
}

/// Writes `DnsMessage::query(id, name)` into `out`, which is exactly
/// `query_len(name)` bytes: the one-write form of building the message
/// and emitting it, under the same name rules as `emit_name`.
pub(crate) fn write_query(out: &mut [u8], id: u16, name: &str) {
    let (header, question) = out.split_at_mut(DNS_HEADER_LEN);
    header[0..2].copy_from_slice(&id.to_be_bytes());
    header[2..4].copy_from_slice(&0x0100u16.to_be_bytes()); // recursion desired
    header[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    header[6..12].fill(0); // ANCOUNT, NSCOUNT, ARCOUNT
    let mut at = 0;
    for label in wire_labels(name) {
        question[at] = label.len() as u8;
        let to = &mut question[at + 1..=at + label.len()];
        to.copy_from_slice(label);
        to.make_ascii_lowercase();
        at += 1 + label.len();
    }
    question[at] = 0;
    question[at + 1..at + 3].copy_from_slice(&DnsRecordType::A.value().to_be_bytes());
    question[at + 3..at + 5].copy_from_slice(&1u16.to_be_bytes()); // class IN
}

/// The labels `emit_name` writes for `name`, before lower-casing: trailing
/// dots stripped, none for the root, each cut at 63 bytes.
fn wire_labels(name: &str) -> impl Iterator<Item = &[u8]> {
    let name = name.trim_end_matches('.');
    (!name.is_empty())
        .then(|| name.split('.'))
        .into_iter()
        .flatten()
        .map(|label| &label.as_bytes()[..label.len().min(63)])
}

/// Lower-cases a name and strips any trailing dot.
fn normalize_name(name: &str) -> String {
    name.trim_end_matches('.').to_ascii_lowercase()
}

/// Emits a domain name as a sequence of length-prefixed labels.
fn emit_name(buf: &mut BytesMut, name: &str) {
    let name = normalize_name(name);
    if !name.is_empty() {
        for label in name.split('.') {
            let label = label.as_bytes();
            let len = label.len().min(63);
            buf.put_u8(len as u8);
            buf.put_slice(&label[..len]);
        }
    }
    buf.put_u8(0);
}

/// Parses a (possibly compressed) domain name starting at `offset`.
/// Returns the name and the offset just past the name in the original stream.
fn parse_name(data: &[u8], mut offset: usize) -> GnfResult<(String, usize)> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumps = 0usize;
    let mut end_offset: Option<usize> = None;

    loop {
        if offset >= data.len() {
            return Err(GnfError::malformed_packet("dns", "name runs past buffer"));
        }
        let len = data[offset];
        if len == 0 {
            if end_offset.is_none() {
                end_offset = Some(offset + 1);
            }
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            if offset + 1 >= data.len() {
                return Err(GnfError::malformed_packet("dns", "truncated pointer"));
            }
            let pointer = (usize::from(len & 0x3f) << 8) | usize::from(data[offset + 1]);
            if end_offset.is_none() {
                end_offset = Some(offset + 2);
            }
            jumps += 1;
            if jumps > 16 {
                return Err(GnfError::malformed_packet("dns", "pointer loop"));
            }
            if pointer >= data.len() {
                return Err(GnfError::malformed_packet("dns", "pointer out of range"));
            }
            offset = pointer;
            continue;
        }
        if len & 0xc0 != 0 {
            return Err(GnfError::malformed_packet("dns", "reserved label type"));
        }
        let start = offset + 1;
        let end = start + usize::from(len);
        if end > data.len() {
            return Err(GnfError::malformed_packet("dns", "label runs past buffer"));
        }
        labels.push(String::from_utf8_lossy(&data[start..end]).to_ascii_lowercase());
        offset = end;
        if labels.len() > 128 {
            return Err(GnfError::malformed_packet("dns", "too many labels"));
        }
    }

    Ok((
        labels.join("."),
        end_offset.expect("end offset is set before the loop exits"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let query = DnsMessage::query(0xbeef, "WWW.Gla.ac.UK.");
        let bytes = query.to_bytes();
        let parsed = DnsMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.id, 0xbeef);
        assert!(!parsed.is_response);
        assert!(parsed.recursion_desired);
        assert_eq!(parsed.first_question_name(), Some("www.gla.ac.uk"));
        assert_eq!(parsed.questions[0].qtype, DnsRecordType::A);
        assert!(parsed.answers.is_empty());
    }

    #[test]
    fn response_roundtrip_with_multiple_answers() {
        let query = DnsMessage::query(7, "service.edge.example");
        let addrs = [Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 1, 2)];
        let response = DnsMessage::response_to(&query, &addrs, 300);
        let bytes = response.to_bytes();
        let parsed = DnsMessage::parse(&bytes).unwrap();
        assert!(parsed.is_response);
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.rcode, DnsResponseCode::NoError);
        assert_eq!(parsed.a_records(), addrs.to_vec());
        assert_eq!(parsed.answers[0].ttl, 300);
        assert_eq!(parsed.answers[0].name, "service.edge.example");
    }

    #[test]
    fn empty_answer_set_yields_nxdomain() {
        let query = DnsMessage::query(9, "missing.example");
        let response = DnsMessage::response_to(&query, &[], 60);
        assert_eq!(response.rcode, DnsResponseCode::NxDomain);
        let parsed = DnsMessage::parse(&response.to_bytes()).unwrap();
        assert_eq!(parsed.rcode, DnsResponseCode::NxDomain);
    }

    #[test]
    fn compressed_names_are_followed() {
        // Hand-built response: header, question "a.b", answer with a pointer
        // back to the question name.
        let mut data = vec![
            0x00, 0x01, 0x81, 0x80, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        ];
        data.extend_from_slice(&[1, b'a', 1, b'b', 0]); // name at offset 12
        data.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // type A class IN
        data.extend_from_slice(&[0xc0, 0x0c]); // pointer to offset 12
        data.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // type A class IN
        data.extend_from_slice(&[0x00, 0x00, 0x00, 0x3c]); // ttl 60
        data.extend_from_slice(&[0x00, 0x04, 192, 0, 2, 1]); // rdlength + addr
        let parsed = DnsMessage::parse(&data).unwrap();
        assert_eq!(parsed.first_question_name(), Some("a.b"));
        assert_eq!(parsed.answers[0].name, "a.b");
        assert_eq!(parsed.a_records(), vec![Ipv4Addr::new(192, 0, 2, 1)]);
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(DnsMessage::parse(&[0u8; 4]).is_err());
        // Question count says 1 but no question bytes follow.
        let data = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        assert!(DnsMessage::parse(&data).is_err());
        // Pointer loop: name points at itself.
        let mut looped = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        looped.extend_from_slice(&[0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01]);
        assert!(DnsMessage::parse(&looped).is_err());
    }

    #[test]
    fn cname_rdata_is_decoded() {
        let answer = DnsAnswer {
            name: "alias.example".into(),
            rtype: DnsRecordType::Cname,
            ttl: 120,
            rdata: DnsRdata::Name("canonical.example".into()),
        };
        let msg = DnsMessage {
            id: 3,
            is_response: true,
            recursion_desired: false,
            rcode: DnsResponseCode::NoError,
            questions: vec![],
            answers: vec![answer.clone()],
        };
        let parsed = DnsMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.answers[0].rdata, answer.rdata);
    }

    #[test]
    fn record_type_mapping() {
        assert_eq!(DnsRecordType::from(1), DnsRecordType::A);
        assert_eq!(DnsRecordType::from(5), DnsRecordType::Cname);
        assert_eq!(DnsRecordType::from(28), DnsRecordType::Aaaa);
        assert_eq!(DnsRecordType::from(15), DnsRecordType::Other(15));
        assert_eq!(DnsRecordType::Other(15).value(), 15);
    }
}
