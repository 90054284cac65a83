package availability

// ProductStates exposes productStates to the external test package.
var ProductStates = productStates
