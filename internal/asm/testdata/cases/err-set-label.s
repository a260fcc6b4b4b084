X:
	.set X, 4
