package ioserver

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/trace"
)

// Server side of the epoch commit protocol.  Staged writes are journaled
// and parked in memory, invisible to reads; opEpochCommit journals the
// commit decision (the durability point), applies the staged segments to
// the stripe, syncs, and clears.  The protocol tolerates every crash
// instant (journal recovery re-applies or discards) and every duplicate
// (re-staging and re-committing an epoch writes the same bytes to the
// same offsets).
//
// Seal is the liveness check: it echoes the server's incarnation plus
// this connection's staging tally, so a client can detect that a server
// bounced mid-epoch (empty tally where its stage log says otherwise) and
// that the incarnation it sealed against is the one the commit reaches.

// stageEpoch parks segs under epoch, journaling each segment first.  The
// data is copied: request payloads are reused per frame.
func (s *Server) stageEpoch(epoch uint64, segs []storage.Segment) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	var total int
	for _, sg := range segs {
		total += len(sg.Buf)
	}
	buf := make([]byte, 0, total)
	for _, sg := range segs {
		if err := s.journal.AppendStage(epoch, sg.Off, sg.Buf); err != nil {
			return err
		}
		start := len(buf)
		buf = append(buf, sg.Buf...)
		s.staged[epoch] = append(s.staged[epoch], storage.Segment{Off: sg.Off, Buf: buf[start:]})
	}
	s.stats.bytesWritten.Add(int64(total))
	return nil
}

// commitEpoch makes epoch durable: commit record → journal sync → apply
// → stripe sync → clear.  Exactly one epoch is in flight at a time, so a
// commit also discards any abandoned staged state from earlier epochs,
// which is what lets the journal reset to empty.
func (s *Server) commitEpoch(epoch uint64, incarnation int64) error {
	if incarnation != s.incarnation {
		return fmt.Errorf("ioserver: commit for incarnation %d, server restarted as %d: %w",
			incarnation, s.incarnation, storage.ErrEpochRetry)
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	segs := s.staged[epoch]
	if len(segs) == 0 && epoch == s.lastCommitted {
		return nil // duplicate commit retry: already applied
	}
	var total int64
	for _, sg := range segs {
		total += int64(len(sg.Buf))
	}
	sp := s.cfg.Tracer.BeginIO(trace.PhaseServerCommit, int64(epoch), total)
	defer sp.End()
	if err := s.journal.AppendCommit(epoch); err != nil {
		return err
	}
	if len(segs) > 0 {
		if err := storage.WriteAtv(s.cfg.Backend, segs); err != nil {
			return err
		}
	}
	if err := s.cfg.Backend.Sync(); err != nil {
		return err
	}
	if epoch > s.lastCommitted {
		s.lastCommitted = epoch
	}
	s.staged = make(map[uint64][]storage.Segment)
	s.stats.epochsCommitted.Add(1)
	return s.journal.Reset()
}

// abortEpoch discards epoch's staged state.
func (s *Server) abortEpoch(epoch uint64) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if _, ok := s.staged[epoch]; ok {
		s.stats.epochsAborted.Add(1)
	}
	delete(s.staged, epoch)
	if len(s.staged) == 0 {
		return s.journal.Reset()
	}
	return nil
}

// Incarnation reports the server instance id (changes on restart).
func (s *Server) Incarnation() int64 { return s.incarnation }

// LastCommitted reports the highest epoch committed by this instance.
func (s *Server) LastCommitted() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.lastCommitted
}

// tally records one staged request on this connection and in the
// server's staged-write count.  One epoch is in flight per connection at
// a time, so a new epoch resets the connection's counters.
func (st *connState) tally(epoch uint64, bytes int64) {
	st.srv.stats.stagedWrites.Add(1)
	if st.tallyEpoch != epoch {
		st.tallyEpoch, st.tallyCount, st.tallyBytes = epoch, 0, 0
	}
	st.tallyCount++
	st.tallyBytes += bytes
}

// getEpoch decodes and validates a leading epoch id.
func getEpoch(payload []byte) (uint64, []byte, error) {
	e, rest, err := getV(payload)
	if err != nil {
		return 0, nil, err
	}
	if e <= 0 {
		return 0, nil, fmt.Errorf("%w: epoch id %d", errBadRequest, e)
	}
	return uint64(e), rest, nil
}

// opEpochSeal: epoch → incarnation, staged count, staged bytes (this
// connection's tally).
func (st *connState) opEpochSeal(payload []byte) ([]byte, error) {
	epoch, _, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	st.srv.stats.epochsSealed.Add(1)
	var count, bytes int64
	if st.tallyEpoch == epoch {
		count, bytes = st.tallyCount, st.tallyBytes
	}
	resp := putV(st.resp[:0], st.srv.incarnation)
	resp = putV(resp, count)
	resp = putV(resp, bytes)
	st.resp = resp
	return resp, nil
}

// opEpochCommit: epoch, incarnation → —.
func (st *connState) opEpochCommit(payload []byte) ([]byte, error) {
	epoch, payload, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	inc, _, err := getV(payload)
	if err != nil {
		return nil, err
	}
	return nil, st.srv.commitEpoch(epoch, inc)
}

// opEpochAbort: epoch → —.
func (st *connState) opEpochAbort(payload []byte) ([]byte, error) {
	epoch, _, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	return nil, st.srv.abortEpoch(epoch)
}
