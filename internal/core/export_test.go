package core

// AccessFlags exposes the per-copy-set accessibility rule to the
// external tests.
var AccessFlags = accessFlags
