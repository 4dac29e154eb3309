package ioserver

import "sync/atomic"

// Per-server connection pool.  A single Client serializes its
// round-trips behind one mutex — correct, but sessions sharing a
// striped backend convoy on that dial: while one session's window
// read is on the wire, every other session's request to the same
// server waits for the mutex, not the server.  A clientPool keeps
// ClientOptions.Conns independent connections per server and deals
// stateless operations round-robin across them, so concurrent sessions
// overlap their round-trips.
//
// Epoch staging stays correct across members because the server stages
// globally per epoch id while tallying per connection: Begin/Seal/End
// fan out to every member (a member that staged nothing seals a zero
// tally against the server's zero count for that connection), and
// exactly one member — the primary — issues the commit, which applies
// every connection's staged segments at once.
type clientPool struct {
	members []*Client
	next    atomic.Uint64
}

func newClientPool(addr string, conns int, opts ClientOptions) *clientPool {
	if conns <= 0 {
		conns = 1
	}
	p := &clientPool{members: make([]*Client, conns)}
	for i := range p.members {
		p.members[i] = NewClient(addr, opts)
	}
	return p
}

// pick deals the next stateless operation round-robin.
func (p *clientPool) pick() *Client {
	if len(p.members) == 1 {
		return p.members[0]
	}
	return p.members[p.next.Add(1)%uint64(len(p.members))]
}

// primary is the member that owns single-shooter operations (commit,
// server stats).
func (p *clientPool) primary() *Client { return p.members[0] }

func (p *clientPool) rounds() int64 {
	var n int64
	for _, c := range p.members {
		n += c.Rounds()
	}
	return n
}

func (p *clientPool) close() error {
	var first error
	for _, c := range p.members {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
