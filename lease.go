package tklus

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the leadership protocol of a replica group: a lease grants
// one replica the exclusive right to accept ingest for its shard until the
// lease expires, and every grant carries a monotonically increasing EPOCH.
// The epoch is the fencing token — writes are stamped with the epoch they
// were accepted under, and anything downstream (followers applying a
// shipped stream, the group's own append path) rejects work stamped with
// an epoch older than the current one. A deposed leader that comes back
// from a GC pause and tries to finish an old write is therefore rejected
// even though its process never observed the failover.
//
// LeaseManager is deliberately tiny so the in-process implementation here
// can be swapped, through ReplicationConfig.LeaseManagerFor, for one backed
// by an external coordination store (etcd, ZooKeeper, a database row with
// compare-and-swap) without touching the replica group.

// Lease records one leadership grant.
type Lease struct {
	Holder  string    // replica name holding the lease
	Epoch   uint64    // monotone per acquisition; the fencing token
	Expires time.Time // instant the grant lapses unless renewed
}

// ErrLeaseHeld is returned by Acquire while a different holder's lease is
// still unexpired — the safety window that prevents two leaders.
var ErrLeaseHeld = errors.New("tklus: lease held by another replica")

// ErrNotLeaseHolder is returned by Renew when the caller does not hold the
// current lease, or held it but let it expire (someone else may have
// acquired in between, so resuming silently would be unsafe).
var ErrNotLeaseHolder = errors.New("tklus: not the lease holder")

// LeaseManager arbitrates leadership for one replica group. All methods
// are safe for concurrent use.
type LeaseManager interface {
	// Acquire grants the lease to holder for ttl. While another holder's
	// unexpired lease exists it fails with ErrLeaseHeld. A fresh grant
	// (expired or never held) carries a NEW epoch, strictly greater than
	// every earlier one; re-acquiring one's own unexpired lease extends it
	// under the SAME epoch (it is a renewal, not a leadership change).
	Acquire(holder string, ttl time.Duration) (Lease, error)
	// Renew extends the caller's unexpired lease by ttl under the same
	// epoch, or fails with ErrNotLeaseHolder.
	Renew(holder string, ttl time.Duration) (Lease, error)
	// Current returns the current lease and whether it is unexpired.
	Current() (Lease, bool)
	// Release voluntarily ends the caller's lease (graceful demotion), so
	// a successor can Acquire without waiting out the TTL. Releasing a
	// lease one does not hold is a no-op.
	Release(holder string)
}

// LocalLeaseManager is the in-process LeaseManager: authoritative within
// one process, which is exactly the scope of a BuildReplicatedSharded
// tier. The tier gives each replica group its own unless
// ReplicationConfig.LeaseManagerFor supplies one.
type LocalLeaseManager struct {
	now func() time.Time

	mu    sync.Mutex
	lease Lease
	held  bool // a grant exists (it may still be expired by the clock)
}

// NewLocalLeaseManager returns an in-process lease manager. now is the
// clock (nil means time.Now); tests inject a fake clock to drive expiry
// deterministically.
func NewLocalLeaseManager(now func() time.Time) *LocalLeaseManager {
	if now == nil {
		now = time.Now
	}
	return &LocalLeaseManager{now: now}
}

func (m *LocalLeaseManager) Acquire(holder string, ttl time.Duration) (Lease, error) {
	if holder == "" || ttl <= 0 {
		return Lease{}, fmt.Errorf("tklus: lease needs a holder and a positive ttl")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if m.held && now.Before(m.lease.Expires) {
		if m.lease.Holder != holder {
			return Lease{}, fmt.Errorf("%w: %s until %s",
				ErrLeaseHeld, m.lease.Holder, m.lease.Expires.Format(time.RFC3339Nano))
		}
		m.lease.Expires = now.Add(ttl) // own unexpired lease: extend, same epoch
		return m.lease, nil
	}
	m.lease = Lease{Holder: holder, Epoch: m.lease.Epoch + 1, Expires: now.Add(ttl)}
	m.held = true
	return m.lease, nil
}

func (m *LocalLeaseManager) Renew(holder string, ttl time.Duration) (Lease, error) {
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("tklus: lease needs a positive ttl")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if !m.held || m.lease.Holder != holder || !now.Before(m.lease.Expires) {
		return Lease{}, fmt.Errorf("%w: %s", ErrNotLeaseHolder, holder)
	}
	m.lease.Expires = now.Add(ttl)
	return m.lease, nil
}

func (m *LocalLeaseManager) Current() (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lease, m.held && m.now().Before(m.lease.Expires)
}

func (m *LocalLeaseManager) Release(holder string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held && m.lease.Holder == holder {
		// Expire in place rather than erase: the epoch must stay visible so
		// the next Acquire grants a strictly greater one.
		m.lease.Expires = m.now()
	}
}
