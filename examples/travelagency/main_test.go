package main

// Example runs the case-study walk-through: every level of the Table 7
// model, both architectures, the Table 8 sweep and the Figure 13 revenue
// impact.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// == Service level (Tables 3-5) ==
	//   A(Net   ) = 0.996600000
	//   A(LAN   ) = 0.996600000
	//   A(WS    ) = 0.999995587
	//   A(AS    ) = 0.999984000
	//   A(DS    ) = 0.989984160
	//   A(Flight) = 0.999990000
	//   A(Hotel ) = 0.999990000
	//   A(Car   ) = 0.999990000
	//   A(PS    ) = 0.900000000
	//
	// == Function level (Table 6) ==
	//   A(Home  ) = 0.993207177
	//   A(Browse) = 0.988419594
	//   A(Search) = 0.983214144
	//   A(Book  ) = 0.983214144
	//   A(Pay   ) = 0.884919276
	//
	// == User level (equation 10) ==
	//   class A: hierarchy 0.978817 | equation (10) 0.978817 | downtime 186 h/year
	//   class B: hierarchy 0.964816 | equation (10) 0.964816 | downtime 308 h/year
	//
	// == Architecture comparison (class B) ==
	//   basic (Figure 7)       A(user) = 0.804664
	//   redundant (Figure 8)   A(user) = 0.964816
	//
	// == Sensitivity: number of reservation systems (Table 8) ==
	//   N= 1  class A 0.84227   class B 0.75921
	//   N= 2  class A 0.96387   class B 0.94230
	//   N= 3  class A 0.97732   class B 0.96257
	//   N= 4  class A 0.97868   class B 0.96461
	//   N= 5  class A 0.97882   class B 0.96482
	//   N=10  class A 0.97883   class B 0.96484
	//
	// == Business impact (Figure 13 economics) ==
	//   class A: payment scenarios down 76 h/year -> 27.2M lost transactions, $2722.5M lost revenue
	//   class B: payment scenarios down 205 h/year -> 73.7M lost transactions, $7368.9M lost revenue
}
