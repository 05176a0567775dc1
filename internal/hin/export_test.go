package hin

// CheckDecodeMatchesReference exports checkDecodeMatchesReference to the
// external test package, whose tests generate documents with datagen (which
// imports hin, so package hin's own tests cannot).
var CheckDecodeMatchesReference = checkDecodeMatchesReference
