//! Messages exchanged between compute processors and I/O processors.

use ddio_patterns::{AccessKind, Chunk};

/// A file-system message. The wire size is computed by
/// [`FsMessage::payload_bytes`] plus the configured header size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMessage {
    /// Traditional caching: a CP asks an IOP for part of one file block.
    /// Write requests carry the data with them.
    TcRequest {
        /// Request id, unique per CP.
        id: u64,
        /// Issuing CP.
        cp: usize,
        /// Read or write.
        op: AccessKind,
        /// File block number.
        block: u64,
        /// Byte offset within the block.
        offset: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Traditional caching: the IOP's reply. Read replies carry the data.
    TcReply {
        /// The id of the request this answers.
        id: u64,
        /// Read or write (determines whether data rode along).
        op: AccessKind,
        /// Length in bytes of the data (for reads).
        len: u32,
    },
    /// Traditional caching: a CP asks an IOP to finish all outstanding
    /// write-behind and prefetch activity (issued once per IOP at the end of
    /// the measured transfer, so "total transfer time includes waiting for
    /// all I/O to complete").
    TcSync {
        /// Issuing CP.
        cp: usize,
    },
    /// Traditional caching: the IOP has drained all background activity.
    TcSyncDone,
    /// Disk-directed I/O: the collective request, multicast by one CP to all
    /// IOPs. The array distribution itself is shared configuration.
    CollectiveRequest {
        /// The CP that multicast the request (receives the completions).
        cp: usize,
        /// Read or write.
        op: AccessKind,
    },
    /// Disk-directed I/O: an IOP reports that it has finished its share.
    CollectiveDone {
        /// The reporting IOP.
        iop: usize,
    },
    /// Disk-directed I/O: data moved from IOP memory directly into CP memory.
    Memput {
        /// The piece of the file this data corresponds to.
        piece: Chunk,
    },
    /// Disk-directed I/O: an IOP asks a CP to send it a piece of data.
    Memget {
        /// Transfer id, unique per IOP.
        id: u64,
        /// The requesting IOP.
        iop: usize,
        /// The piece of the file being requested.
        piece: Chunk,
    },
    /// Disk-directed I/O: the CP's reply to a [`FsMessage::Memget`],
    /// carrying the data.
    MemgetReply {
        /// The id of the Memget this answers.
        id: u64,
        /// The piece of the file carried.
        piece: Chunk,
    },
}

impl FsMessage {
    /// Bytes of data (not counting the fixed header) this message carries on
    /// the wire.
    pub fn payload_bytes(&self) -> u64 {
        match *self {
            FsMessage::TcRequest { op, len, .. } => match op {
                AccessKind::Write => len as u64,
                AccessKind::Read => 0,
            },
            FsMessage::TcReply { op, len, .. } => match op {
                AccessKind::Read => len as u64,
                AccessKind::Write => 0,
            },
            FsMessage::Memput { piece } => piece.bytes,
            FsMessage::MemgetReply { piece, .. } => piece.bytes,
            FsMessage::TcSync { .. }
            | FsMessage::TcSyncDone
            | FsMessage::CollectiveRequest { .. }
            | FsMessage::CollectiveDone { .. }
            | FsMessage::Memget { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_rides_with_the_right_messages() {
        let read_req = FsMessage::TcRequest {
            id: 1,
            cp: 0,
            op: AccessKind::Read,
            block: 0,
            offset: 0,
            len: 8192,
        };
        assert_eq!(read_req.payload_bytes(), 0);
        let write_req = FsMessage::TcRequest {
            id: 1,
            cp: 0,
            op: AccessKind::Write,
            block: 0,
            offset: 0,
            len: 8192,
        };
        assert_eq!(write_req.payload_bytes(), 8192);
        let read_reply = FsMessage::TcReply {
            id: 1,
            op: AccessKind::Read,
            len: 4096,
        };
        assert_eq!(read_reply.payload_bytes(), 4096);
        let piece = Chunk {
            cp: 3,
            file_offset: 0,
            bytes: 512,
            mem_offset: 0,
        };
        assert_eq!(FsMessage::Memput { piece }.payload_bytes(), 512);
        assert_eq!(
            FsMessage::Memget {
                id: 9,
                iop: 1,
                piece
            }
            .payload_bytes(),
            0
        );
        assert_eq!(FsMessage::MemgetReply { id: 9, piece }.payload_bytes(), 512);
        assert_eq!(FsMessage::TcSyncDone.payload_bytes(), 0);
    }
}
