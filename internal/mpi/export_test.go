package mpi

// LiveComms reports how many communicators the world holds on its poison
// list.
func (w *World) LiveComms() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.comms)
}
