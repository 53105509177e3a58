package wire

import "testing"

// TestDedupIsPerClient: two clients that number their requests from 1 must
// not share applied-set entries. Client a's last mutation is never
// acknowledged (no request follows it), so its entry outlives a; a second
// client reaching the same request ID must still have its push applied.
func TestDedupIsPerClient(t *testing.T) {
	_, addr := startServer(t)
	a := NewClient([]string{addr}, fastRetry())
	if err := a.CreateShard(0, 1, 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.PushAdd(0, 1, 0, []int{0}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	b := NewClient([]string{addr}, fastRetry())
	defer b.Close()
	for i := 0; i < 5; i++ {
		if err := b.PushAdd(0, 1, 0, []int{0}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := b.PullSparse(0, 1, 0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 8 {
		t.Fatalf("col 0 = %v after 3+5 pushes of 1 from two clients, want 8", vals[0])
	}
}

// TestPushAddRejectedLeavesShardUntouched: a push naming a column outside
// the shard is rejected as a whole, so none of its in-range columns move.
func TestPushAddRejectedLeavesShardUntouched(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	if err := c.CreateShard(0, 1, 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.PushAdd(0, 1, 0, []int{1, 9}, []float64{1, 1}); err == nil {
		t.Fatal("push to column 9 of a [0,4) shard accepted")
	}
	vals, err := c.PullSparse(0, 1, 0, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("col %d = %v after a rejected push, want 0 (partially applied)", i, v)
		}
	}
}

// appliedEntries counts the server's applied-set entries over all clients.
func appliedEntries(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, byReq := range s.applied {
		n += len(byReq)
	}
	return n
}
