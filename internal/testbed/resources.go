package testbed

import (
	"fmt"

	"repro/internal/travelagency"
)

// Tier names: one concurrent component per tier, each exposed as an
// http.Handler.
const (
	TierNet    = "net"
	TierLAN    = "lan"
	TierWeb    = "web"
	TierApp    = "app"
	TierDB     = "db"
	TierFlight = "flight"
	TierHotel  = "hotel"
	TierCar    = "car"
	TierPay    = "pay"
)

// Resource is one replica-level unit of the deployment (a host, a disk, an
// external reservation system, a connectivity link). Fault injection operates
// at this granularity, so redundancy is earned structurally by the testbed
// instead of being folded into a service availability up front.
type Resource struct {
	Name string
	Tier string
	// Availability is the resource's steady-state availability, used by the
	// Bernoulli fault plane directly and by DefaultCampaign to derive
	// alternating-renewal failure/repair rates.
	Availability float64
}

// serviceGroup maps one model service to the resources that implement it:
// the service is up iff every bank has at least one up resource (banks are
// ANDed, resources within a bank are 1-of-N). Banks hold resource indices
// into the inventory.
type serviceGroup struct {
	service string
	tier    string
	banks   [][]int
}

// serviceOrder lists the services the deployment implements, in the order
// of every topology's groups.
var serviceOrder = [...]string{
	travelagency.SvcInternet, travelagency.SvcLAN, travelagency.SvcWeb,
	travelagency.SvcApp, travelagency.SvcDB, travelagency.SvcFlight,
	travelagency.SvcHotel, travelagency.SvcCar, travelagency.SvcPayment,
}

// serviceIndex returns the index of the named service's group, or -1 when
// the deployment does not implement it.
func serviceIndex(name string) int {
	for i, svc := range serviceOrder {
		if svc == name {
			return i
		}
	}
	return -1
}

// inventory builds the resource list and the service groups, in
// serviceOrder, of the Figure 7/8 architecture described by the parameters.
func inventory(p travelagency.Params) ([]Resource, []serviceGroup) {
	var resources []Resource
	add := func(tier string, avail float64, names ...string) []int {
		idx := make([]int, len(names))
		for i, n := range names {
			idx[i] = len(resources)
			resources = append(resources, Resource{Name: n, Tier: tier, Availability: avail})
		}
		return idx
	}
	numbered := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%d", prefix, i+1)
		}
		return out
	}

	internal := 2 // redundant architecture: paired app/db hosts and disks
	if p.Architecture == travelagency.Basic {
		internal = 1
	}
	webAvail := p.WebRepairRate / (p.WebFailureRate + p.WebRepairRate)

	net := add(TierNet, p.NetAvailability, "net")
	lan := add(TierLAN, p.LANAvailability, "lan")
	web := add(TierWeb, webAvail, numbered("web", p.WebServers)...)
	app := add(TierApp, p.AppHostAvailability, numbered("app", internal)...)
	dbHosts := add(TierDB, p.DBHostAvailability, numbered("dbhost", internal)...)
	disks := add(TierDB, p.DiskAvailability, numbered("disk", internal)...)
	flights := add(TierFlight, p.FlightSystemAvailability, numbered("flight", p.FlightSystems)...)
	hotels := add(TierHotel, p.HotelSystemAvailability, numbered("hotel", p.HotelSystems)...)
	cars := add(TierCar, p.CarSystemAvailability, numbered("car", p.CarSystems)...)
	pay := add(TierPay, p.PaymentAvailability, "pay")

	groups := []serviceGroup{
		{service: travelagency.SvcInternet, tier: TierNet, banks: [][]int{net}},
		{service: travelagency.SvcLAN, tier: TierLAN, banks: [][]int{lan}},
		{service: travelagency.SvcWeb, tier: TierWeb, banks: [][]int{web}},
		{service: travelagency.SvcApp, tier: TierApp, banks: [][]int{app}},
		{service: travelagency.SvcDB, tier: TierDB, banks: [][]int{dbHosts, disks}},
		{service: travelagency.SvcFlight, tier: TierFlight, banks: [][]int{flights}},
		{service: travelagency.SvcHotel, tier: TierHotel, banks: [][]int{hotels}},
		{service: travelagency.SvcCar, tier: TierCar, banks: [][]int{cars}},
		{service: travelagency.SvcPayment, tier: TierPay, banks: [][]int{pay}},
	}
	return resources, groups
}

// Tiers returns the component tier names in deterministic order.
func Tiers() []string {
	return []string{TierNet, TierLAN, TierWeb, TierApp, TierDB, TierFlight, TierHotel, TierCar, TierPay}
}
