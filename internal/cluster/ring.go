// Package cluster turns a set of fold3dd processes into a fleet: a static
// peer list, a consistent-hash ring that assigns every request fingerprint
// an owner node, an HTTP proxy path so any node can accept any POST, and a
// network cache tier that fetches artifacts from peers over the same
// versioned+checksummed wire format the disk spill uses.
//
// The fleet changes nothing about results. Cache keys and job fingerprints
// are pure functions of the normalized request (the PR-4 determinism
// contract), so which node runs a job — or which peer serves an artifact —
// can never change a byte of output. The ring only decides placement.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/url"
	"regexp"
	"sort"
	"strings"
)

// ringReplicas is the number of virtual points each node contributes to
// the ring. More points smooth the key distribution between nodes; 64 is
// plenty for the single-digit fleet sizes a static peer list targets.
const ringReplicas = 64

// nodeIDPattern restricts node IDs to lowercase alphanumerics and
// underscores — no dashes — so a node-prefixed job ID like
// "east_1-job-000042" always splits unambiguously at the first dash.
var nodeIDPattern = regexp.MustCompile(`^[a-z0-9_]+$`)

// Node is one member of the static fleet.
type Node struct {
	// ID names the node; it prefixes job IDs minted by the node and must
	// match ^[a-z0-9_]+$ (and not be "job" or "batch", which are reserved
	// by the ID grammar).
	ID string
	// URL is the node's base URL, e.g. "http://10.0.0.5:8080".
	URL string
}

// Ring is an immutable consistent-hash ring over the fleet's nodes. The
// owner of a key depends only on the set of node IDs — never on the order
// the peer list was written in — so every node computes identical routing
// from its own copy of the same fleet definition.
type Ring struct {
	self   string
	nodes  map[string]Node // by ID
	points []ringPoint     // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// New builds the ring. self must be one of the node IDs; node IDs must be
// unique, well-formed, and carry parseable URLs.
func New(self string, nodes []Node) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	r := &Ring{self: self, nodes: make(map[string]Node, len(nodes))}
	for _, n := range nodes {
		if !nodeIDPattern.MatchString(n.ID) {
			return nil, fmt.Errorf("cluster: node id %q: want ^[a-z0-9_]+$", n.ID)
		}
		if n.ID == "job" || n.ID == "batch" {
			return nil, fmt.Errorf("cluster: node id %q is reserved", n.ID)
		}
		if _, dup := r.nodes[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q: bad url %q", n.ID, n.URL)
		}
		n.URL = strings.TrimRight(n.URL, "/")
		r.nodes[n.ID] = n
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n.ID, i), id: n.ID})
		}
	}
	if _, ok := r.nodes[self]; !ok {
		return nil, fmt.Errorf("cluster: self id %q not in node list", self)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit hash collision between virtual points is vanishingly
		// unlikely; break it by ID so the ring stays order-independent.
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// pointHash places virtual point i of a node on the ring. SHA-256 keeps
// the placement stable across processes, architectures and Go versions —
// the same guarantee the pipeline hasher gives cache keys.
func pointHash(id string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("node:%s:%d", id, i)))
	return binary.LittleEndian.Uint64(sum[:8])
}

// keyHash places a cache key / request fingerprint on the ring.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte("key:" + key))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Self returns this node's ID.
func (r *Ring) Self() string { return r.self }

// Owner returns the node that owns key: the first virtual point at or
// clockwise after the key's hash. Deterministic, and stable under
// peer-list reordering.
func (r *Ring) Owner(key string) Node {
	return r.nodes[r.points[r.search(key)].id]
}

// search returns the index of the first point at or after the key's hash,
// wrapping to 0 past the last point.
func (r *Ring) search(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Sequence returns every node in the key's preference order: the owner
// first, then each distinct successor clockwise around the ring. A cache
// fetch walks this order so the artifact's most likely home is tried
// first.
func (r *Ring) Sequence(key string) []Node {
	seq := make([]Node, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i, start := 0, r.search(key); len(seq) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			seq = append(seq, r.nodes[p.id])
		}
	}
	return seq
}

// NodeByID looks a node up by ID.
func (r *Ring) NodeByID(id string) (Node, bool) {
	n, ok := r.nodes[id]
	return n, ok
}

// ParsePeers parses the -peers flag format: a comma-separated list of
// id=url entries naming the FULL fleet, self included — every node is
// started with the same value, e.g.
//
//	-peers a=http://127.0.0.1:8080,b=http://127.0.0.1:8081
func ParsePeers(s string) ([]Node, error) {
	var nodes []Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("cluster: peer entry %q: want id=url", part)
		}
		nodes = append(nodes, Node{ID: id, URL: u})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return nodes, nil
}
