package main

// Example runs the quickstart model: the service, function and scenario
// availabilities of the two-tier store and its user-perceived availability.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// Service availabilities:
	//   Web  0.999900
	//   DB   0.995000
	//   Pay  0.980000
	// Function availabilities:
	//   Landing   0.999900
	//   Checkout  0.975002
	// Scenario availabilities:
	//   browse-only  π=0.70  A=0.999900
	//   buy          π=0.30  A=0.975002
	// User-perceived availability: 0.992431 (66.3 hours of user-visible downtime/year)
}
