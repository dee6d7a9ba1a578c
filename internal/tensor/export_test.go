package tensor

// OpenJobs is how many jobs the pool lists as open, for the external tests.
func OpenJobs() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.open)
}
