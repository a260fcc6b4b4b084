_start:
	jalr a0, 5
