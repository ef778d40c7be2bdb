package obs

// WALReport is the durability section of a run report and the payload
// of the live /debug/wal endpoint: the write-ahead log's counters, its
// sequence watermarks and the fsync latency distribution. Built by the
// server from its log (see internal/server and internal/wal); nil when
// the server runs without a WAL.
type WALReport struct {
	// Enabled distinguishes "no WAL configured" (the endpoint then
	// serves {"enabled":false}) from a WAL with all-zero counters.
	Enabled bool `json:"enabled"`
	// Policy is the configured fsync policy: always, interval or off.
	Policy string `json:"policy"`
	// Dir is the log directory root.
	Dir string `json:"dir,omitempty"`

	// AppendedRecords / AppendedOps / AppendedBytes count the append
	// stream since startup (one record per request with writes).
	AppendedRecords uint64 `json:"appended_records"`
	AppendedOps     uint64 `json:"appended_ops"`
	AppendedBytes   uint64 `json:"appended_bytes"`
	// Syncs counts fsyncs (group-commit ticks, always-policy batches
	// and segment seals).
	Syncs uint64 `json:"syncs"`
	// Rotations counts segment rotations; Checkpoints counts snapshot
	// files written; SegmentsReclaimed counts sealed segments deleted
	// because a checkpoint covered them.
	Rotations         uint64 `json:"rotations"`
	Checkpoints       uint64 `json:"checkpoints"`
	SegmentsReclaimed uint64 `json:"segments_reclaimed"`
	// LagSheds counts writes shed with StatusOverloaded because the
	// fsync queue was over budget.
	LagSheds uint64 `json:"lag_sheds"`

	// ReplayedRecords / ReplayedOps count startup recovery work
	// (checkpoint pairs are included in ReplayedOps); TornTruncations
	// counts torn tails discarded; CheckpointPairs is the number of
	// pairs loaded from checkpoint snapshots.
	ReplayedRecords uint64 `json:"replayed_records"`
	ReplayedOps     uint64 `json:"replayed_ops"`
	TornTruncations uint64 `json:"torn_truncations"`
	CheckpointPairs uint64 `json:"checkpoint_pairs"`

	// DurableSeq / AppliedSeq / PendingOps are the live watermarks:
	// the last fsynced record sequence, the last index-applied
	// sequence, and ops appended but not yet acknowledged.
	DurableSeq uint64 `json:"durable_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	PendingOps int64  `json:"pending_ops"`

	// FsyncLatency is the fsync duration distribution.
	FsyncLatency *LatencyReport `json:"fsync_latency,omitempty"`
}
