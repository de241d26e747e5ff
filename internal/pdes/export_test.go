package pdes

// PoolCheck lets external tests of this package (package pdes_test, which may
// import the packages built on top of pdes) turn on use-after-free poisoning.
var PoolCheck = &poolCheck
