_start:
	ret a0
