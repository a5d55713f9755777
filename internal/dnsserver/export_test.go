package dnsserver

// CheckEveryOwner exports checkEveryOwner to the package's external tests,
// which build zones with packages that import this one.
var CheckEveryOwner = checkEveryOwner
