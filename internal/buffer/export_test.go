package buffer

import "logrec/internal/storage"

// resident returns the number of cached pages.
func (p *Pool) resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames.Len()
}

// dirtyPIDs walks the frames and returns the dirty ones' PIDs in
// ascending order.
func (p *Pool) dirtyPIDs() []storage.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []storage.PageID
	p.frames.Range(func(pid storage.PageID, f *Frame) bool {
		if f.Dirty {
			out = append(out, pid)
		}
		return true
	})
	return out
}

// drop removes pid from the pool without flushing it.
func (p *Pool) drop(pid storage.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames.Get(pid); ok {
		p.removeFrame(f)
	}
}
