package sweepd

import "fmt"

// worker drains the cell queue until Shutdown. Each iteration resolves
// one cell end to end — check store, simulate, persist — so Shutdown's
// wg.Wait() is the cell boundary: a worker never abandons a cell
// halfway.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			// Stop even with a non-empty queue: Shutdown checkpoints
			// whatever is left.
			return
		default:
		}
		hash, ok := s.pop()
		if !ok {
			select {
			case <-s.quit:
				return
			case <-s.wake:
			}
			continue
		}
		s.process(hash)
	}
}

// pop removes the oldest queued hash.
func (s *Server) pop() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return "", false
	}
	hash := s.queue[0]
	s.queue = s.queue[1:]
	s.stats.QueueDepth--
	return hash, true
}

// process resolves one queued cell: a store hit finishes it at once
// (a restored checkpoint can name cells that landed before shutdown);
// otherwise the cell simulates and its result is persisted.
func (s *Server) process(hash string) {
	s.mu.Lock()
	f := s.flights[hash]
	if f == nil || f.done {
		s.mu.Unlock()
		return
	}
	spec := f.spec
	s.mu.Unlock()

	if res, ok, err := s.store.Get(hash); err != nil {
		s.finish(hash, outcome{Err: err.Error()})
		return
	} else if ok {
		s.finish(hash, outcome{Result: res})
		return
	}

	s.mu.Lock()
	s.stats.Inflight++
	s.mu.Unlock()
	res, err := s.cfg.Simulate(spec)
	s.mu.Lock()
	s.stats.Inflight--
	s.stats.Simulations++
	s.mu.Unlock()

	if err != nil {
		s.finish(hash, outcome{Err: fmt.Sprintf("simulating %.8s: %v", hash, err)})
		return
	}
	if _, err := s.store.Put(spec, res); err != nil {
		s.finish(hash, outcome{Err: err.Error()})
		return
	}
	s.finish(hash, outcome{Result: res})
}
