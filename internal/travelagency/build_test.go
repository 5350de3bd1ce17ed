package travelagency

import (
	"math"
	"testing"

	"repro/internal/rbd"
)

// TestOneOfNMatchesRBD pins the closed-form Table 3–4 groups to the block
// diagrams they replace, bit for bit: a 1-of-n group is rbd's parallel block
// over Replicate's leaves, and the redundant DB service is a 1-of-2 host
// group in series with a 1-of-2 disk group.
func TestOneOfNMatchesRBD(t *testing.T) {
	avails := []float64{0, 1e-300, 1e-9, 0.5, 0.99, 1 - 1e-16, 1}
	for n := 1; n <= 64; n++ {
		for _, a := range avails {
			blocks, err := rbd.Replicate("flight", n, a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rbd.Eval(rbd.Parallel("flight-1ofN", blocks...))
			if err != nil {
				t.Fatal(err)
			}
			if got := oneOfN(n, a); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("oneOfN(%d, %v) = %v, rbd %v", n, a, got, want)
			}
		}
	}
	for _, host := range avails {
		for _, disk := range avails {
			hosts, err := rbd.Replicate("db-host", 2, host)
			if err != nil {
				t.Fatal(err)
			}
			disks, err := rbd.Replicate("disk", 2, disk)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rbd.Eval(rbd.Series("db-service",
				rbd.Parallel("db-hosts", hosts...),
				rbd.Parallel("mirrored-disks", disks...),
			))
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams()
			p.Architecture = Redundant
			p.DBHostAvailability, p.DiskAvailability = host, disk
			avail, err := ServiceAvailabilities(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := avail[SvcDB]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("A(DB) at host %v, disk %v = %v, rbd %v", host, disk, got, want)
			}
		}
	}
}
