package pkg

// Double exposes double to the external test package.
var Double = double
