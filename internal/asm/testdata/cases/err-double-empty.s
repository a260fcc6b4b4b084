	.double 1.0,
