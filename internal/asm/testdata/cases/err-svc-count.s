_start:
	svc 1, 2
