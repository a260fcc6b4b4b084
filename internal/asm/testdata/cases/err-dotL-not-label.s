_start:
	.Lfoo a0
