_start:
	movid f0, 1
