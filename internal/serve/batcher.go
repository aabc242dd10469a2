package serve

// batchLoop is the single consumer of the admission queue. It is
// work-conserving: a batch goes to a replica the moment one is free,
// holding every request already queued (up to MaxBatch), and it grows
// from the queue only while every replica is busy. Each turn of the loop
// either takes one request or hands the batch over:
//
//   - empty: block on the queue for the first arrival.
//   - full (MaxBatch): block on the dispatch channel until a replica is
//     free — the backpressure chain: busy replicas → batcher stalls →
//     queue fills → Submit rejects with ErrOverloaded.
//   - partial: take a queued request if there is one (a select picks at
//     random among ready cases, so draining first is what guarantees an
//     idle replica is never handed fewer requests than are waiting);
//     otherwise wait for whichever comes first, an idle replica or the
//     next arrival.
//
// Closing the queue (Close) flushes the partial batch and closes the
// dispatch channel, so every admitted request is answered before Close
// returns.
func (s *Server) batchLoop() {
	defer close(s.batcherDone)
	defer close(s.dispatch)
	batch := <-s.free
	for {
		var r *Request
		var ok bool
		switch {
		case len(batch) == s.cfg.MaxBatch:
			batch = s.flush(batch)
			continue
		case len(batch) == 0:
			r, ok = <-s.queue
		default:
			select {
			case r, ok = <-s.queue:
			default:
				select {
				case s.dispatch <- batch:
					batch = <-s.free
					continue
				case r, ok = <-s.queue:
				}
			}
		}
		if !ok {
			if len(batch) > 0 {
				s.flush(batch)
			}
			return
		}
		batch = append(batch, r)
	}
}

// flush hands the batch to a replica worker, blocking until one is free,
// and takes a fresh slice from the free list.
func (s *Server) flush(batch []*Request) []*Request {
	s.dispatch <- batch
	return <-s.free
}
