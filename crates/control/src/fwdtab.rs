//! The forwarding table, as a text file.
//!
//! "The forwarding table is a text file, recording the next hops' IP
//! addresses for each relevant multicast session the coding function
//! belongs to" (Sec. III-A). Format, one line per session:
//!
//! ```text
//! session <id> <next-hop> [<next-hop> ...]
//! session <id>
//! ```
//!
//! Next hops are opaque address strings (`ip:port` in the real-socket
//! deployment, `node:port` in the simulator). A line with no next hop is a
//! *withdrawal*: merged into a table it removes the session's route. Lines
//! starting with `#` and blank lines are ignored.
//!
//! A push is a delta: [`ForwardingTable::diff`] of what a node is
//! believed to hold against what the plan gives it, withdrawals included.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use ncvnf_rlnc::SessionId;

/// Parse errors for the table text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A line did not match the `session <id> <hops...>` shape.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::BadLine { line, reason } => {
                write!(f, "bad forwarding table line {line}: {reason}")
            }
        }
    }
}

impl Error for TableError {}

/// A per-VNF forwarding table: session → next-hop addresses. An entry
/// with no next hop is a withdrawal; it routes nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForwardingTable {
    entries: BTreeMap<SessionId, Vec<String>>,
}

impl ForwardingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the next hops of a session (replacing any previous entry).
    pub fn set(&mut self, session: SessionId, hops: Vec<String>) {
        self.entries.insert(session, hops);
    }

    /// Removes a session's entry; returns true if present.
    pub fn remove(&mut self, session: SessionId) -> bool {
        self.entries.remove(&session).is_some()
    }

    /// Next hops for a session.
    pub fn next_hops(&self, session: SessionId) -> Option<&[String]> {
        self.entries.get(&session).map(|v| v.as_slice())
    }

    /// Number of session entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in session order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &[String])> {
        self.entries.iter().map(|(&s, h)| (s, h.as_slice()))
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        self.entries.iter().map(|(&s, h)| line(s, h)).collect()
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// [`TableError::BadLine`] on any malformed line.
    pub fn parse(text: &str) -> Result<Self, TableError> {
        let mut table = ForwardingTable::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("session") => {}
                _ => {
                    return Err(TableError::BadLine {
                        line: i + 1,
                        reason: "expected 'session' keyword".into(),
                    })
                }
            }
            let id: u16 = parts
                .next()
                .ok_or_else(|| TableError::BadLine {
                    line: i + 1,
                    reason: "missing session id".into(),
                })?
                .parse()
                .map_err(|e| TableError::BadLine {
                    line: i + 1,
                    reason: format!("bad session id: {e}"),
                })?;
            table.set(SessionId::new(id), parts.map(str::to_owned).collect());
        }
        Ok(table)
    }

    /// The push that takes a node holding this table to `plan`: each
    /// planned entry this table lacks or holds differently (every planned
    /// entry when `whole`), and a withdrawal of each session this table
    /// routes and `plan` does not (of each one it names at all, its own
    /// withdrawals included, when `whole`). Empty when nothing changes.
    pub fn diff(&self, plan: &ForwardingTable, whole: bool) -> ForwardingTable {
        let mut push = ForwardingTable::new();
        for (&session, hops) in &plan.entries {
            if whole || self.entries.get(&session) != Some(hops) {
                push.set(session, hops.clone());
            }
        }
        for (&session, hops) in &self.entries {
            if !plan.entries.contains_key(&session) && (whole || !hops.is_empty()) {
                push.set(session, Vec::new());
            }
        }
        push
    }

    /// A content digest of the table's routes, derived from the canonical
    /// text form (FNV-1a over the [`to_text`](Self::to_text) lines of the
    /// entries that have next hops; withdrawals are left out), masked to 53 bits
    /// so the value survives a round trip through an `f64` metric gauge
    /// exactly. The controller's reconciliation pass compares the digest
    /// it believes a node holds (journal replay) against the digest the
    /// node reports (`relay.table_digest` in `NC_STATS`) to find
    /// diverged tables without shipping the text back.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for (&session, hops) in self.entries.iter().filter(|(_, h)| !h.is_empty()) {
            for byte in line(session, hops).bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash & ((1u64 << 53) - 1)
    }

    /// Merges `other` into this table (delta update): entries present in
    /// `other` replace or add to the current table, its withdrawals remove
    /// theirs, everything else is kept. Returns how many routes actually
    /// changed. This is the Table III operation — the controller ships
    /// only the changed fraction of the table.
    pub fn merge(&mut self, other: &ForwardingTable) -> usize {
        let mut changed = 0;
        for (&session, hops) in &other.entries {
            if hops.is_empty() {
                let routed = self.entries.remove(&session);
                changed += usize::from(routed.is_some_and(|h| !h.is_empty()));
            } else if self.entries.get(&session) != Some(hops) {
                self.entries.insert(session, hops.clone());
                changed += 1;
            }
        }
        changed
    }
}

/// One line of the text format: `session <id>` and the next hops.
fn line(session: SessionId, hops: &[String]) -> String {
    let mut out = format!("session {}", session.value());
    for h in hops {
        out.push(' ');
        out.push_str(h);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ForwardingTable {
        let mut t = ForwardingTable::new();
        t.set(
            SessionId::new(1),
            vec!["10.0.0.1:4000".into(), "10.0.0.2:4000".into()],
        );
        t.set(SessionId::new(3), vec!["10.0.0.9:4000".into()]);
        t
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        let text = t.to_text();
        assert!(text.contains("session 1 10.0.0.1:4000 10.0.0.2:4000"));
        let back = ForwardingTable::parse(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# comment\n\nsession 5 a:1\n";
        let t = ForwardingTable::parse(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.next_hops(SessionId::new(5)).unwrap(), ["a:1"]);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(ForwardingTable::parse("nonsense").is_err());
        assert!(ForwardingTable::parse("session x a:1").is_err());
        assert!(ForwardingTable::parse("session").is_err());
        assert!(ForwardingTable::parse("route 5 a:1").is_err());
    }

    #[test]
    fn a_line_without_hops_withdraws_the_session() {
        let push = ForwardingTable::parse("session 3\nsession 4 x:1\n").unwrap();
        assert_eq!(push.next_hops(SessionId::new(3)), Some(&[][..]));
        assert_eq!(push.to_text(), "session 3\nsession 4 x:1\n");
        let mut t = sample();
        assert_eq!(t.merge(&push), 2, "one route withdrawn, one added");
        assert_eq!(t.next_hops(SessionId::new(3)), None);
        assert_eq!(
            t.to_text(),
            "session 1 10.0.0.1:4000 10.0.0.2:4000\nsession 4 x:1\n"
        );
        assert_eq!(t.merge(&push), 0, "a withdrawal of nothing changes nothing");
    }

    #[test]
    fn digest_tracks_content_and_fits_f64() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest(), "equal tables, equal digest");
        let mut c = sample();
        c.set(SessionId::new(1), vec!["10.9.9.9:4000".into()]);
        assert_ne!(a.digest(), c.digest(), "changed entry, changed digest");
        assert_ne!(
            ForwardingTable::new().digest(),
            a.digest(),
            "empty differs from populated"
        );
        // Survives the f64 gauge round trip losslessly.
        let through_gauge = a.digest() as f64 as u64;
        assert_eq!(through_gauge, a.digest());
        // A withdrawal routes nothing, so it is not in the digest.
        let mut d = sample();
        d.set(SessionId::new(9), Vec::new());
        assert_eq!(d.digest(), a.digest());
    }

    #[test]
    fn diff_counts_changes() {
        let a = sample();
        let mut b = sample();
        assert!(a.diff(&b, false).is_empty());
        b.set(SessionId::new(1), vec!["10.9.9.9:4000".into()]); // changed
        b.set(SessionId::new(4), vec!["x:1".into()]); // added
        b.remove(SessionId::new(3)); // removed
        let push = a.diff(&b, false);
        assert_eq!(
            push.to_text(),
            "session 1 10.9.9.9:4000\nsession 3\nsession 4 x:1\n"
        );
        let mut c = sample();
        assert_eq!(c.merge(&push), 3);
        assert_eq!(c, b);
        // A whole push repeats the unchanged routes, and every withdrawal
        // the belief still names.
        let mut belief = c.clone();
        belief.set(SessionId::new(3), Vec::new());
        assert!(belief.diff(&b, false).is_empty());
        assert_eq!(
            belief.diff(&b, true).to_text(),
            "session 1 10.9.9.9:4000\nsession 3\nsession 4 x:1\n"
        );
    }
}
