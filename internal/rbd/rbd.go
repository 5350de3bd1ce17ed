// Package rbd implements reliability block diagrams: hierarchical
// compositions of components in series, parallel, and k-of-n arrangements,
// evaluated for steady-state availability under the independence assumption.
//
// The travel-agency study describes its service level with block diagrams:
// external reservation services are 1-of-N parallel blocks (Table 3), and the
// redundant application/database services are 1-of-2 parallel blocks of
// hosts, in series with a 1-of-2 block of mirrored disks (Table 4). Package
// travelagency evaluates those fixed shapes in closed form rather than
// building diagrams, and its tests hold the closed form to this package bit
// for bit. Here, diagrams serve the k-of-n group services of modelspec
// documents and any hierarchy service given as a block.
package rbd

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadAvailability is returned for component availabilities outside [0, 1].
var ErrBadAvailability = errors.New("rbd: availability must be within [0, 1]")

// Block is a node of a reliability block diagram.
type Block interface {
	// Name returns the block's label for reporting.
	Name() string
	// Availability returns the steady-state probability that the block is
	// operational, assuming independent components.
	Availability() float64
	// Components appends the leaf components reachable from the block.
	Components(out []*Component) []*Component
}

// Component is a leaf block with a fixed availability.
type Component struct {
	name  string
	avail float64
}

// NewComponent builds a leaf component. The availability must lie in [0, 1].
func NewComponent(name string, availability float64) (*Component, error) {
	if availability < 0 || availability > 1 || math.IsNaN(availability) {
		return nil, fmt.Errorf("%w: %q has %v", ErrBadAvailability, name, availability)
	}
	return &Component{name: name, avail: availability}, nil
}

// MustComponent is NewComponent that panics on error, for static model
// definitions whose parameters are compile-time constants.
func MustComponent(name string, availability float64) *Component {
	c, err := NewComponent(name, availability)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the component name.
func (c *Component) Name() string { return c.name }

// Availability returns the component availability.
func (c *Component) Availability() float64 { return c.avail }

// SetAvailability updates the component availability (used by sensitivity
// sweeps).
func (c *Component) SetAvailability(a float64) error {
	if a < 0 || a > 1 || math.IsNaN(a) {
		return fmt.Errorf("%w: %q set to %v", ErrBadAvailability, c.name, a)
	}
	c.avail = a
	return nil
}

// Components implements Block.
func (c *Component) Components(out []*Component) []*Component { return append(out, c) }

// series is a chain of blocks that must all be up.
type series struct {
	name   string
	blocks []Block
}

// Series returns a block that is up iff all children are up.
func Series(name string, blocks ...Block) Block {
	return &series{name: name, blocks: blocks}
}

func (s *series) Name() string { return s.name }

func (s *series) Availability() float64 {
	a := 1.0
	for _, b := range s.blocks {
		a *= b.Availability()
	}
	return a
}

func (s *series) Components(out []*Component) []*Component {
	for _, b := range s.blocks {
		out = b.Components(out)
	}
	return out
}

// parallel is a redundant group needing at least one child up.
type parallel struct {
	name   string
	blocks []Block
}

// Parallel returns a block that is up iff at least one child is up.
func Parallel(name string, blocks ...Block) Block {
	return &parallel{name: name, blocks: blocks}
}

func (p *parallel) Name() string { return p.name }

func (p *parallel) Availability() float64 {
	u := 1.0
	for _, b := range p.blocks {
		u *= 1 - b.Availability()
	}
	return 1 - u
}

func (p *parallel) Components(out []*Component) []*Component {
	for _, b := range p.blocks {
		out = b.Components(out)
	}
	return out
}

// kofn requires at least k of its children to be up.
type kofn struct {
	name   string
	k      int
	blocks []Block
}

// KofN returns a block that is up iff at least k of the children are up.
// It panics if k is out of range — model construction errors, not runtime
// conditions.
func KofN(name string, k int, blocks ...Block) Block {
	if k < 1 || k > len(blocks) {
		panic(fmt.Sprintf("rbd: k=%d out of range for %d blocks", k, len(blocks)))
	}
	return &kofn{name: name, k: k, blocks: blocks}
}

func (g *kofn) Name() string { return g.name }

// Availability computes P(at least k of n independent non-identical blocks
// up) by dynamic programming over the count of operational children.
func (g *kofn) Availability() float64 {
	n := len(g.blocks)
	// dp[j] = P(exactly j of the blocks considered so far are up).
	dp := make([]float64, n+1)
	dp[0] = 1
	for i, b := range g.blocks {
		a := b.Availability()
		for j := i + 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-a) + dp[j-1]*a
		}
		dp[0] *= 1 - a
	}
	var s float64
	for j := g.k; j <= n; j++ {
		s += dp[j]
	}
	return s
}

func (g *kofn) Components(out []*Component) []*Component {
	for _, b := range g.blocks {
		out = b.Components(out)
	}
	return out
}

// Replicate builds n identical leaf components named prefix-1..prefix-n.
func Replicate(prefix string, n int, availability float64) ([]Block, error) {
	if n < 1 {
		return nil, fmt.Errorf("rbd: replicate %d copies", n)
	}
	out := make([]Block, n)
	for i := range out {
		c, err := NewComponent(fmt.Sprintf("%s-%d", prefix, i+1), availability)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Eval computes the availability of the diagram rooted at root, correctly
// handling components that appear in several places of the diagram (shared
// resources such as the LAN, which the paper's user-level analysis calls out
// as requiring "a careful analysis of the dependencies ... due to shared
// services or resources").
//
// Components are identified by pointer: reusing one *Component value in
// several branches declares a shared resource. Naive multiplication would
// square its availability; Eval instead applies Shannon decomposition
// (conditioning) on every duplicated component. The cost is O(2^d) in the
// number d of duplicated components.
func Eval(root Block) (float64, error) {
	leaves := root.Components(nil)
	count := make(map[*Component]int, len(leaves))
	for _, c := range leaves {
		count[c]++
	}
	var shared []*Component
	for _, c := range leaves {
		if count[c] > 1 {
			shared = append(shared, c)
			count[c] = 0 // only record once
		}
	}
	const maxShared = 20
	if len(shared) > maxShared {
		return 0, fmt.Errorf("rbd: %d shared components exceed factoring limit %d", len(shared), maxShared)
	}
	if len(shared) == 0 {
		return root.Availability(), nil
	}
	orig := make([]float64, len(shared))
	for i, c := range shared {
		orig[i] = c.avail
	}
	defer func() {
		for i, c := range shared {
			c.avail = orig[i]
		}
	}()
	var total float64
	for mask := 0; mask < 1<<len(shared); mask++ {
		weight := 1.0
		for i, c := range shared {
			if mask&(1<<i) != 0 {
				c.avail = 1
				weight *= orig[i]
			} else {
				c.avail = 0
				weight *= 1 - orig[i]
			}
		}
		if weight == 0 {
			continue
		}
		total += weight * root.Availability()
	}
	return total, nil
}

// Importance holds the Birnbaum structural importance of one component: the
// partial derivative of system availability with respect to the component's
// availability, ∂A_sys/∂A_i = A_sys(A_i=1) − A_sys(A_i=0).
type Importance struct {
	Component string
	Birnbaum  float64
}

// BirnbaumImportance computes the Birnbaum importance of every distinct leaf
// component of the diagram, sorted descending. Components sharing a pointer
// are treated as the same component (shared services in the hierarchy), and
// the system availability is evaluated with Eval so shared resources are
// conditioned on correctly.
func BirnbaumImportance(root Block) ([]Importance, error) {
	leaves := root.Components(nil)
	seen := make(map[*Component]bool, len(leaves))
	var unique []*Component
	for _, c := range leaves {
		if !seen[c] {
			seen[c] = true
			unique = append(unique, c)
		}
	}
	out := make([]Importance, 0, len(unique))
	for _, c := range unique {
		orig := c.avail
		c.avail = 1
		up, err := Eval(root)
		if err != nil {
			c.avail = orig
			return nil, err
		}
		c.avail = 0
		down, err := Eval(root)
		c.avail = orig
		if err != nil {
			return nil, err
		}
		out = append(out, Importance{Component: c.name, Birnbaum: up - down})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Birnbaum != out[j].Birnbaum {
			return out[i].Birnbaum > out[j].Birnbaum
		}
		return out[i].Component < out[j].Component
	})
	return out, nil
}
