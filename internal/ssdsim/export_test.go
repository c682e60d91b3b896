package ssdsim

// ZeroView is the buffer every read of an unbacked device returns a view
// of, for the external tests that run whole simulations over it.
var ZeroView = zeroBuf
