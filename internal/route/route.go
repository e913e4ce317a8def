// Package route implements a grid-based global router and, on top of it, the
// paper's F2F via placer (§5.1): unlike TSVs, face-to-face vias may sit
// anywhere — including over cells and macros — so placement-style algorithms
// are the wrong tool; instead the two dies are merged into one "2D-like"
// routing graph (plane 0 = bottom-die metal, plane 1 = top-die metal, with
// F2F-via edges between them at every grid cell) and the 3D nets are routed
// by an ordinary 2D router; the points where routes change plane are the F2F
// via locations.
package route

import (
	"fmt"
	"math"
	"sort"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
)

// Options configures the router.
type Options struct {
	// GCell is the routing grid cell edge in drawn µm.
	GCell float64
	// Capacity is the number of routes a gcell absorbs before congestion
	// cost kicks in.
	Capacity int
	// ViaCost is the extra path cost of changing planes (in gcell units);
	// keeps routes from zig-zagging between dies.
	ViaCost float64
	// CongestionCost is the per-overflow additive cost.
	CongestionCost float64
}

// DefaultOptions returns router defaults tuned for block-level F2F routing.
func DefaultOptions() Options {
	return Options{GCell: 2.0, Capacity: 24, ViaCost: 2.0, CongestionCost: 4.0}
}

// Grid is the two-plane routing graph over a block outline.
type Grid struct {
	opt    Options
	region geom.Rect
	nx, ny int
	// usage[plane][y*nx+x] counts routes through the gcell.
	usage [2][]int
	// viaUse[y*nx+x] counts F2F vias dropped in the gcell.
	viaUse []int

	// A* scratch reused across Route2Pin calls. dist/prev entries are valid
	// only where seen carries the current epoch, so starting a new route is
	// one counter bump instead of an O(nodes) re-initialization — the cost
	// per route is proportional to the cells the search actually visits.
	dist     []float64
	prev     []int32
	seen     []int32
	epoch    int32
	frontier []pqItem
}

// NewGrid builds the routing grid over region.
func NewGrid(region geom.Rect, opt Options) (*Grid, error) {
	if opt.GCell <= 0 {
		opt = DefaultOptions()
	}
	nx := int(math.Ceil(region.W() / opt.GCell))
	ny := int(math.Ceil(region.H() / opt.GCell))
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("route: empty routing region %v", region)
	}
	g := &Grid{opt: opt, region: region, nx: nx, ny: ny}
	for p := 0; p < 2; p++ {
		g.usage[p] = make([]int, nx*ny)
	}
	g.viaUse = make([]int, nx*ny)
	return g, nil
}

// cellAt maps a point to gcell coordinates, clamped.
func (g *Grid) cellAt(p geom.Point) (int, int) {
	x := int((p.X - g.region.Lo.X) / g.opt.GCell)
	y := int((p.Y - g.region.Lo.Y) / g.opt.GCell)
	if x < 0 {
		x = 0
	}
	if x >= g.nx {
		x = g.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	return x, y
}

// center returns the drawn-space center of gcell (x, y).
func (g *Grid) center(x, y int) geom.Point {
	return geom.Point{
		X: g.region.Lo.X + (float64(x)+0.5)*g.opt.GCell,
		Y: g.region.Lo.Y + (float64(y)+0.5)*g.opt.GCell,
	}
}

// node encodes (plane, y, x) as one integer.
func (g *Grid) node(plane, x, y int) int { return plane*g.nx*g.ny + y*g.nx + x }

func (g *Grid) unnode(n int) (plane, x, y int) {
	sz := g.nx * g.ny
	plane = n / sz
	rem := n % sz
	return plane, rem % g.nx, rem / g.nx
}

// stepCost is the cost of entering gcell (x,y) on plane.
func (g *Grid) stepCost(plane, x, y int) float64 {
	c := 1.0
	u := g.usage[plane][y*g.nx+x]
	if u > g.opt.Capacity {
		c += g.opt.CongestionCost * float64(u-g.opt.Capacity)
	}
	return c
}

// pqItem is an A* frontier entry.
type pqItem struct {
	node int
	f    float64
}

// heapPush appends it and sifts it up, replicating container/heap.Push with
// Less = f-strictly-less: identical swap sequence, so the pop order (ties
// included) matches the previous interface-based heap exactly, without the
// per-push interface{} boxing allocation.
func heapPush(q []pqItem, it pqItem) []pqItem {
	q = append(q, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

// heapPop removes and returns the minimum entry, replicating
// container/heap.Pop (swap root to the end, sift down over the shortened
// prefix, pop the tail).
func heapPop(q []pqItem) ([]pqItem, pqItem) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q[r].f < q[l].f {
			j = r
		}
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[:n], q[n]
}

// RoutedPath is the result of routing one two-pin connection.
type RoutedPath struct {
	// Nodes is the gcell node sequence from source to target.
	Nodes []int
	// LenUm is the drawn routed length in µm.
	LenUm float64
	// Vias are the drawn-space locations where the path changes plane.
	Vias []geom.Point
}

// beginRoute sizes the A* scratch to the grid and opens a fresh visit epoch.
func (g *Grid) beginRoute() {
	n := 2 * g.nx * g.ny
	if len(g.seen) < n {
		g.dist = make([]float64, n)
		g.prev = make([]int32, n)
		g.seen = make([]int32, n)
		g.epoch = 0
	}
	if g.epoch == math.MaxInt32 {
		clear(g.seen)
		g.epoch = 0
	}
	g.epoch++
}

// Route2Pin routes from src (on plane srcPlane) to dst (on plane dstPlane)
// with A*, allowing plane changes (F2F vias) at any gcell. It updates usage.
func (g *Grid) Route2Pin(src geom.Point, srcPlane int, dst geom.Point, dstPlane int) (*RoutedPath, error) {
	sx, sy := g.cellAt(src)
	tx, ty := g.cellAt(dst)
	start := g.node(srcPlane, sx, sy)
	goal := g.node(dstPlane, tx, ty)

	// Epoch-stamped scratch: a node whose seen stamp is stale counts as
	// unvisited (dist = +Inf), so the relaxation below is value-identical to
	// the full-initialization version it replaced.
	g.beginRoute()
	dist, prev, seen, epoch := g.dist, g.prev, g.seen, g.epoch
	dist[start] = 0
	prev[start] = -1
	seen[start] = epoch
	h := func(node int) float64 {
		p, x, y := g.unnode(node)
		d := math.Abs(float64(x-tx)) + math.Abs(float64(y-ty))
		if p != dstPlane {
			d += g.opt.ViaCost
		}
		return d
	}
	relax := func(v, from int, nd float64) bool {
		if seen[v] == epoch && nd >= dist[v] {
			return false
		}
		seen[v] = epoch
		dist[v] = nd
		prev[v] = int32(from)
		return true
	}
	frontier := heapPush(g.frontier[:0], pqItem{start, h(start)})
	for len(frontier) > 0 {
		var it pqItem
		frontier, it = heapPop(frontier)
		if it.node == goal {
			break
		}
		if it.f > dist[it.node]+h(it.node)+1e-9 {
			continue // stale entry
		}
		plane, x, y := g.unnode(it.node)
		// 4-neighborhood on the same plane.
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nxp, nyp := x+d[0], y+d[1]
			if nxp < 0 || nxp >= g.nx || nyp < 0 || nyp >= g.ny {
				continue
			}
			v := g.node(plane, nxp, nyp)
			nd := dist[it.node] + g.stepCost(plane, nxp, nyp)
			if relax(v, it.node, nd) {
				frontier = heapPush(frontier, pqItem{v, nd + h(v)})
			}
		}
		// Plane change (F2F via) in place.
		v := g.node(1-plane, x, y)
		nd := dist[it.node] + g.opt.ViaCost
		if relax(v, it.node, nd) {
			frontier = heapPush(frontier, pqItem{v, nd + h(v)})
		}
	}
	g.frontier = frontier[:0]
	if seen[goal] != epoch {
		return nil, fmt.Errorf("route: no path from %v to %v", src, dst)
	}

	// Recover the path, commit usage, collect via points.
	var nodes []int
	for v := goal; v != -1; v = int(prev[v]) {
		nodes = append(nodes, v)
	}
	// Reverse into source->target order.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	path := &RoutedPath{Nodes: nodes}
	for i, v := range nodes {
		plane, x, y := g.unnode(v)
		g.usage[plane][y*g.nx+x]++
		if i > 0 {
			pp, _, _ := g.unnode(nodes[i-1])
			if pp != plane {
				path.Vias = append(path.Vias, g.center(x, y))
				g.viaUse[y*g.nx+x]++
			} else {
				path.LenUm += g.opt.GCell
			}
		}
	}
	return path, nil
}

// Overflow returns the total gcell usage beyond capacity, a congestion
// metric.
func (g *Grid) Overflow() int {
	total := 0
	for p := 0; p < 2; p++ {
		for _, u := range g.usage[p] {
			if u > g.opt.Capacity {
				total += u - g.opt.Capacity
			}
		}
	}
	return total
}

// MaxViaDensity returns the largest number of F2F vias in any single gcell.
func (g *Grid) MaxViaDensity() int {
	m := 0
	for _, u := range g.viaUse {
		if u > m {
			m = u
		}
	}
	return m
}

// PlaceF2FVias runs the paper's F2F via placement flow on a folded block:
// every die-crossing signal net is routed through the merged two-plane grid
// (2D nets are excluded — the paper ties them to ground so they cannot
// perturb the 3D routes), and the plane-change points become the net's F2F
// vias. Macros are NOT blockages: F2F vias live above the top metal.
// Sets net.Vias/Crossings and b.NumF2F; returns the grid for inspection.
func PlaceF2FVias(b *netlist.Block, opt Options) (*Grid, error) {
	if !b.Is3D {
		return nil, fmt.Errorf("route: PlaceF2FVias on 2D block %s", b.Name)
	}
	region := b.Outline[0].Union(b.Outline[1])
	g, err := NewGrid(region, opt)
	if err != nil {
		return nil, err
	}

	// Route longest nets first (they define the via fabric), like the
	// TSV planner.
	type work struct {
		net  int
		span float64
	}
	var ws []work
	var pins []geom.Point
	for i := range b.Nets {
		n := &b.Nets[i]
		if n.Kind != netlist.Signal || !b.NetIs3D(n) {
			continue
		}
		pins = b.AppendNetPins(pins[:0], n)
		ws = append(ws, work{i, geom.HPWL(pins)})
	}
	sort.Slice(ws, func(a, c int) bool { return ws[a].span > ws[c].span })

	b.NumF2F = 0
	for _, w := range ws {
		n := &b.Nets[w.net]
		vias, err := routeNet3D(b, g, n)
		if err != nil {
			return nil, fmt.Errorf("route: net %s: %v", n.Name, err)
		}
		n.Vias = vias
		n.Crossings = len(vias)
		b.NumF2F += len(vias)
	}
	return g, nil
}

// routeNet3D routes one multi-pin 3D net as a driver-rooted star of 2-pin
// connections, merging the plane-change points. A sink on the driver's die
// contributes no via; sinks on the other die route through the merged graph.
func routeNet3D(b *netlist.Block, g *Grid, n *netlist.Net) ([]geom.Point, error) {
	dp := b.PinPos(n.Driver)
	dd := int(b.PinDie(n.Driver))
	var vias []geom.Point
	// The route target is the far-die sink closest to the driver; remaining
	// far-die sinks connect on their own die from the via. A net crosses dies
	// at one (or a few) points, not once per sink; the router shares the
	// crossing.
	var best geom.Point
	haveFar := false
	for _, s := range n.Sinks {
		if int(b.PinDie(s)) != dd {
			p := b.PinPos(s)
			if !haveFar || p.ManhattanDist(dp) < best.ManhattanDist(dp) {
				best = p
				haveFar = true
			}
		}
	}
	if !haveFar {
		return nil, nil
	}
	path, err := g.Route2Pin(dp, dd, best, 1-dd)
	if err != nil {
		return nil, err
	}
	vias = append(vias, path.Vias...)
	if len(vias) == 0 {
		// Degenerate same-cell route; drop the via at the driver location.
		vias = append(vias, dp)
	}
	return vias, nil
}

// PlaceViasMidpoint is the naive baseline for the ablation study: every 3D
// net gets a via at the geometric crossing point with no congestion or
// sharing awareness. Returns the maximum via pile-up on a GCell-sized grid
// so the benchmark can contrast it with the routed flow.
func PlaceViasMidpoint(b *netlist.Block, opt Options) (maxDensity int, err error) {
	if !b.Is3D {
		return 0, fmt.Errorf("route: PlaceViasMidpoint on 2D block %s", b.Name)
	}
	region := b.Outline[0].Union(b.Outline[1])
	g, err := NewGrid(region, opt)
	if err != nil {
		return 0, err
	}
	b.NumF2F = 0
	for i := range b.Nets {
		n := &b.Nets[i]
		if n.Kind != netlist.Signal || !b.NetIs3D(n) {
			continue
		}
		pins := b.NetPins(n)
		bb := geom.BoundingBox(pins)
		p := bb.Center()
		n.Vias = []geom.Point{p}
		n.Crossings = 1
		b.NumF2F++
		x, y := g.cellAt(p)
		g.viaUse[y*g.nx+x]++
	}
	return g.MaxViaDensity(), nil
}
