_start:
	j 1b
1:
